// World: the assembled system (simulated cluster + RMA middleware +
// message-driven runtime + selected address-space manager) and the
// fiber-facing awaitable API for global-address-space operations.
//
// Typical use:
//
//   nvgas::Config cfg = nvgas::Config::with_nodes(16);
//   nvgas::World world(cfg);
//   world.run_spmd([](nvgas::Context& ctx) -> nvgas::Fiber {
//     auto table = nvgas::alloc_cyclic(ctx, /*blocks=*/64, /*bytes=*/4096);
//     co_await nvgas::memput_value<double>(ctx, table, 3.14);
//     double v = co_await nvgas::memget_value<double>(ctx, table);
//     co_await nvgas::migrate(ctx, table, (ctx.rank() + 1) % ctx.ranks());
//   });
#pragma once

#include <cstring>
#include <functional>
#include <memory>

#include "core/config.hpp"
#include "lb/balancer.hpp"
#include "net/endpoint.hpp"
#include "rt/collectives.hpp"
#include "rt/runtime.hpp"
#include "sim/fabric.hpp"

namespace nvgas {

using Context = rt::Context;
using Fiber = rt::Fiber;
using gas::Dist;
using gas::GasMode;
using gas::Gva;

class World {
 public:
  explicit World(const Config& cfg);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] sim::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] sim::Engine& engine() { return fabric_->engine(); }
  [[nodiscard]] sim::Counters& counters() { return fabric_->counters(); }
  // A snapshot of counters(), for before/after deltas.
  [[nodiscard]] sim::Counters counters_total() const {
    return fabric_->counters();
  }
  [[nodiscard]] net::EndpointGroup& endpoints() { return *endpoints_; }
  [[nodiscard]] rt::Runtime& runtime() { return *runtime_; }
  [[nodiscard]] rt::Collectives& coll() { return *coll_; }
  [[nodiscard]] gas::GasBase& gas() { return *gas_; }
  [[nodiscard]] gas::GlobalHeap& heap() { return *heap_; }
  // The adaptive migration balancer; null when cfg.lb.policy is `none`.
  // Constructed inert (active() false) on managers that cannot migrate.
  [[nodiscard]] lb::Balancer* balancer() { return balancer_.get(); }
  [[nodiscard]] int ranks() const { return fabric_->nodes(); }
  [[nodiscard]] sim::Time now() const { return fabric_->engine().now(); }

  // Spawn a fiber on one rank (starts when the engine runs).
  void spawn(int rank, std::function<Fiber(Context&)> fn) {
    runtime_->spawn(rank, std::move(fn));
  }

  // Drain the event queue; returns events executed. `max_events` is a
  // livelock watchdog for benchmarks.
  std::uint64_t run(std::uint64_t max_events = ~0ULL);

  // SPMD helper: spawn `fn` on every rank, drain, and verify that every
  // spawned fiber completed (a leftover suspended fiber means deadlock).
  void run_spmd(std::function<Fiber(Context&)> fn);

  // Per-node utilization/traffic breakdown (CPU busy fraction, NIC
  // tx/rx, memory in use) plus the global counter list — the report
  // examples and benches print under --report.
  [[nodiscard]] std::string report() const;

 private:
  Config cfg_;
  std::unique_ptr<sim::Fabric> fabric_;
  std::unique_ptr<sim::FaultInjector> faults_;  // armed only when cfg.faults.active()
  std::unique_ptr<net::EndpointGroup> endpoints_;
  std::unique_ptr<rt::Runtime> runtime_;
  std::unique_ptr<rt::Collectives> coll_;
  std::unique_ptr<gas::GlobalHeap> heap_;
  std::unique_ptr<gas::GasBase> gas_;
  std::unique_ptr<lb::Balancer> balancer_;
};

// ---------------------------------------------------------------------------
// Fiber-facing GAS API (awaitables).
//
// Each awaitable issues the operation through the current CPU task; if the
// operation completes synchronously (e.g. a local access) the fiber
// continues without suspending.
// ---------------------------------------------------------------------------

namespace detail {

inline sim::TaskCtx& task_of(Context& ctx) {
  sim::TaskCtx* task = ctx.runtime().current_task(ctx.rank());
  NVGAS_CHECK_MSG(task != nullptr, "GAS op outside a fiber segment");
  return *task;
}

inline gas::GasBase& gas_of(Context& ctx) {
  NVGAS_CHECK_MSG(ctx.gas != nullptr, "Context has no GAS installed");
  return *ctx.gas;
}

// Common completion plumbing: handles the completed-synchronously case
// (the callback fires before await_suspend returns).
struct SyncState {
  bool completed = false;
  bool suspended = false;

  // Returns true if the fiber should suspend.
  [[nodiscard]] bool after_issue() {
    if (completed) return false;
    suspended = true;
    return true;
  }

  template <typename Handle>
  void on_complete(Handle h, sim::Time t) {
    if (!suspended) {
      completed = true;
      return;
    }
    auto& p = h.promise();
    p.runtime->resume_fiber_at(p.node, h, t);
  }
};

}  // namespace detail

// --- memput ----------------------------------------------------------------

struct MemputAwaiter {
  Context& ctx;
  Gva dst;
  std::vector<std::byte> data;
  detail::SyncState state;

  [[nodiscard]] bool await_ready() const { return false; }
  bool await_suspend(Fiber::Handle h) {
    detail::gas_of(ctx).memput(detail::task_of(ctx), ctx.rank(), dst,
                               std::move(data),
                               [this, h](sim::Time t) { state.on_complete(h, t); });
    return state.after_issue();
  }
  void await_resume() const {}
};

[[nodiscard]] inline MemputAwaiter memput(Context& ctx, Gva dst,
                                          std::vector<std::byte> data) {
  return MemputAwaiter{ctx, dst, std::move(data), {}};
}

namespace detail {
// memcpy-based construction sidesteps a GCC 12 -Wstringop-overflow false
// positive on span-iterator vector construction at -O2.
inline std::vector<std::byte> to_vec(std::span<const std::byte> data) {
  std::vector<std::byte> out(data.size());
  if (!data.empty()) std::memcpy(out.data(), data.data(), data.size());
  return out;
}
}  // namespace detail

[[nodiscard]] inline MemputAwaiter memput(Context& ctx, Gva dst,
                                          std::span<const std::byte> data) {
  return MemputAwaiter{ctx, dst, detail::to_vec(data), {}};
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
[[nodiscard]] MemputAwaiter memput_value(Context& ctx, Gva dst, const T& value) {
  return MemputAwaiter{ctx, dst, detail::to_vec(std::as_bytes(std::span(&value, 1))),
                       {}};
}

// memput with remote notification: besides completing at the sender, the
// put triggers `remote_event` (an LCO registered on the block's OWNER
// node) the instant the data is visible there — Photon's remote
// completion ledger. Producer/consumer without parcels:
//
//   consumer (on owner):  rt::Event arrived;           // registered ref
//                         co_await arrived;            // data is there
//   producer:             co_await memput_signal(ctx, dst, data, ref);
struct MemputSignalAwaiter {
  Context& ctx;
  Gva dst;
  std::vector<std::byte> data;
  rt::LcoRef remote;
  detail::SyncState state;

  [[nodiscard]] bool await_ready() const { return false; }
  bool await_suspend(Fiber::Handle h) {
    auto* rtp = &ctx.runtime();
    detail::gas_of(ctx).memput_notify(
        detail::task_of(ctx), ctx.rank(), dst, std::move(data),
        [this, h](sim::Time t) { state.on_complete(h, t); },
        [rtp, remote = remote](sim::Time t) { rtp->ledger_set(remote, t); });
    return state.after_issue();
  }
  void await_resume() const {}
};

[[nodiscard]] inline MemputSignalAwaiter memput_signal(Context& ctx, Gva dst,
                                                       std::vector<std::byte> data,
                                                       rt::LcoRef remote_event) {
  return MemputSignalAwaiter{ctx, dst, std::move(data), remote_event, {}};
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
[[nodiscard]] MemputSignalAwaiter memput_signal_value(Context& ctx, Gva dst,
                                                      const T& value,
                                                      rt::LcoRef remote_event) {
  return MemputSignalAwaiter{ctx, dst,
                             detail::to_vec(std::as_bytes(std::span(&value, 1))),
                             remote_event,
                             {}};
}

// --- memget ----------------------------------------------------------------

struct MemgetAwaiter {
  Context& ctx;
  Gva src;
  std::size_t len;
  detail::SyncState state;
  std::vector<std::byte> result;

  [[nodiscard]] bool await_ready() const { return false; }
  bool await_suspend(Fiber::Handle h) {
    detail::gas_of(ctx).memget(detail::task_of(ctx), ctx.rank(), src, len,
                               [this, h](sim::Time t, std::vector<std::byte> data) {
                                 result = std::move(data);
                                 state.on_complete(h, t);
                               });
    return state.after_issue();
  }
  [[nodiscard]] std::vector<std::byte> await_resume() { return std::move(result); }
};

[[nodiscard]] inline MemgetAwaiter memget(Context& ctx, Gva src, std::size_t len) {
  return MemgetAwaiter{ctx, src, len, {}, {}};
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
struct MemgetValueAwaiter {
  MemgetAwaiter inner;
  [[nodiscard]] bool await_ready() const { return false; }
  bool await_suspend(Fiber::Handle h) { return inner.await_suspend(h); }
  [[nodiscard]] T await_resume() {
    auto bytes = inner.await_resume();
    NVGAS_CHECK(bytes.size() == sizeof(T));
    T out;
    std::memcpy(&out, bytes.data(), sizeof(T));
    return out;
  }
};

template <typename T>
[[nodiscard]] MemgetValueAwaiter<T> memget_value(Context& ctx, Gva src) {
  return MemgetValueAwaiter<T>{MemgetAwaiter{ctx, src, sizeof(T), {}, {}}};
}

// --- fetch_add ---------------------------------------------------------------

struct FetchAddAwaiter {
  Context& ctx;
  Gva addr;
  std::uint64_t operand;
  detail::SyncState state;
  std::uint64_t old = 0;

  [[nodiscard]] bool await_ready() const { return false; }
  bool await_suspend(Fiber::Handle h) {
    detail::gas_of(ctx).fetch_add(detail::task_of(ctx), ctx.rank(), addr, operand,
                                  [this, h](sim::Time t, std::uint64_t v) {
                                    old = v;
                                    state.on_complete(h, t);
                                  });
    return state.after_issue();
  }
  [[nodiscard]] std::uint64_t await_resume() const { return old; }
};

[[nodiscard]] inline FetchAddAwaiter fetch_add(Context& ctx, Gva addr,
                                               std::uint64_t operand) {
  return FetchAddAwaiter{ctx, addr, operand, {}};
}

// --- resolve -----------------------------------------------------------------

struct ResolveAwaiter {
  Context& ctx;
  Gva addr;
  detail::SyncState state;
  int owner = -1;

  [[nodiscard]] bool await_ready() const { return false; }
  bool await_suspend(Fiber::Handle h) {
    detail::gas_of(ctx).resolve(detail::task_of(ctx), ctx.rank(), addr,
                                [this, h](sim::Time t, int o) {
                                  owner = o;
                                  state.on_complete(h, t);
                                });
    return state.after_issue();
  }
  [[nodiscard]] int await_resume() const { return owner; }
};

[[nodiscard]] inline ResolveAwaiter resolve(Context& ctx, Gva addr) {
  return ResolveAwaiter{ctx, addr, {}};
}

// --- migrate -----------------------------------------------------------------

struct MigrateAwaiter {
  Context& ctx;
  Gva block;
  int dst;
  detail::SyncState state;

  [[nodiscard]] bool await_ready() const { return false; }
  bool await_suspend(Fiber::Handle h) {
    detail::gas_of(ctx).migrate(detail::task_of(ctx), ctx.rank(), block, dst,
                                [this, h](sim::Time t) { state.on_complete(h, t); });
    return state.after_issue();
  }
  void await_resume() const {}
};

[[nodiscard]] inline MigrateAwaiter migrate(Context& ctx, Gva block, int dst) {
  return MigrateAwaiter{ctx, block, dst, {}};
}

// --- allocation (synchronous metadata; handshake cost charged) ---------------

[[nodiscard]] inline Gva alloc_cyclic(Context& ctx, std::uint32_t nblocks,
                                      std::uint32_t block_size) {
  return detail::gas_of(ctx).alloc(detail::task_of(ctx), ctx.rank(),
                                   Dist::kCyclic, nblocks, block_size);
}

[[nodiscard]] inline Gva alloc_local(Context& ctx, std::uint32_t nblocks,
                                     std::uint32_t block_size) {
  return detail::gas_of(ctx).alloc(detail::task_of(ctx), ctx.rank(),
                                   Dist::kLocal, nblocks, block_size);
}

// Release an allocation (collective semantics: no accesses or migrations
// may be in flight).
inline void free_alloc(Context& ctx, Gva base) {
  detail::gas_of(ctx).free_alloc(detail::task_of(ctx), ctx.rank(), base);
}

// --- spanning transfers ------------------------------------------------------
// memput/memget across block boundaries: split into per-block ops issued
// concurrently; complete on an internal gate. Single-op memput/memget
// reject boundary crossings by design (a block is the distribution and
// migration unit), so bulk I/O goes through these.

struct SpanPutAwaiter {
  Context& ctx;
  Gva dst;
  std::vector<std::byte> data;
  detail::SyncState state;
  std::unique_ptr<rt::AndGate> gate;

  [[nodiscard]] bool await_ready() const { return false; }
  bool await_suspend(Fiber::Handle h) {
    auto& g = detail::gas_of(ctx);
    const std::uint32_t bsize = g.heap().meta_of(dst).block_size;
    // Count the pieces first.
    std::uint64_t pieces = 0;
    for (std::size_t off = 0; off < data.size();) {
      const std::size_t in_block = bsize - dst.advanced(
          static_cast<std::int64_t>(off), bsize).offset();
      off += std::min(in_block, data.size() - off);
      ++pieces;
    }
    if (pieces == 0) return false;  // empty put: nothing to wait for
    gate = std::make_unique<rt::AndGate>(pieces);
    gate->add_waiter(h);  // resume when every piece completes
    std::size_t off = 0;
    while (off < data.size()) {
      const Gva at = dst.advanced(static_cast<std::int64_t>(off), bsize);
      const std::size_t n = std::min<std::size_t>(bsize - at.offset(),
                                                  data.size() - off);
      std::vector<std::byte> piece(data.begin() + static_cast<std::ptrdiff_t>(off),
                                   data.begin() + static_cast<std::ptrdiff_t>(off + n));
      g.memput(detail::task_of(ctx), ctx.rank(), at, std::move(piece),
               [gp = gate.get()](sim::Time t) { gp->arrive(t); });
      off += n;
    }
    return true;
  }
  void await_resume() const {}
};

[[nodiscard]] inline SpanPutAwaiter memput_span(Context& ctx, Gva dst,
                                                std::vector<std::byte> data) {
  return SpanPutAwaiter{ctx, dst, std::move(data), {}, nullptr};
}

struct SpanGetAwaiter {
  Context& ctx;
  Gva src;
  std::size_t len;
  detail::SyncState state;
  std::vector<std::byte> result;
  std::unique_ptr<rt::AndGate> gate;

  [[nodiscard]] bool await_ready() const { return false; }
  bool await_suspend(Fiber::Handle h) {
    auto& g = detail::gas_of(ctx);
    const std::uint32_t bsize = g.heap().meta_of(src).block_size;
    result.assign(len, std::byte{});
    std::uint64_t pieces = 0;
    for (std::size_t off = 0; off < len;) {
      const std::size_t in_block =
          bsize - src.advanced(static_cast<std::int64_t>(off), bsize).offset();
      off += std::min(in_block, len - off);
      ++pieces;
    }
    if (pieces == 0) return false;  // empty get: result stays empty
    gate = std::make_unique<rt::AndGate>(pieces);
    gate->add_waiter(h);
    std::size_t off = 0;
    while (off < len) {
      const Gva at = src.advanced(static_cast<std::int64_t>(off), bsize);
      const std::size_t n = std::min<std::size_t>(bsize - at.offset(), len - off);
      g.memget(detail::task_of(ctx), ctx.rank(), at, n,
               [gp = gate.get(), out = result.data() + off](
                   sim::Time t, std::vector<std::byte> piece) {
                 std::memcpy(out, piece.data(), piece.size());
                 gp->arrive(t);
               });
      off += n;
    }
    return true;
  }
  [[nodiscard]] std::vector<std::byte> await_resume() { return std::move(result); }
};

[[nodiscard]] inline SpanGetAwaiter memget_span(Context& ctx, Gva src,
                                                std::size_t len) {
  return SpanGetAwaiter{ctx, src, len, {}, {}, nullptr};
}

// --- memcpy between global addresses ----------------------------------------

struct MemcpyAwaiter {
  Context& ctx;
  Gva dst;
  Gva src;
  std::size_t len;
  detail::SyncState state;

  [[nodiscard]] bool await_ready() const { return false; }
  bool await_suspend(Fiber::Handle h) {
    detail::gas_of(ctx).memcpy_gva(detail::task_of(ctx), ctx.rank(), dst, src,
                                   len,
                                   [this, h](sim::Time t) { state.on_complete(h, t); });
    return state.after_issue();
  }
  void await_resume() const {}
};

[[nodiscard]] inline MemcpyAwaiter memcpy_gva(Context& ctx, Gva dst, Gva src,
                                              std::size_t len) {
  return MemcpyAwaiter{ctx, dst, src, len, {}};
}

// --- non-blocking variants ----------------------------------------------
// Issue an operation without suspending; completion arrives on an AndGate
// (for windowed pipelining, e.g. GUPS-style update loops).

inline void memput_nb(Context& ctx, Gva dst, std::vector<std::byte> data,
                      rt::AndGate& gate) {
  detail::gas_of(ctx).memput(detail::task_of(ctx), ctx.rank(), dst,
                             std::move(data),
                             [&gate](sim::Time t) { gate.arrive(t); });
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
void memput_value_nb(Context& ctx, Gva dst, const T& value, rt::AndGate& gate) {
  memput_nb(ctx, dst, detail::to_vec(std::as_bytes(std::span(&value, 1))), gate);
}

inline void fetch_add_nb(Context& ctx, Gva addr, std::uint64_t operand,
                         rt::AndGate& gate) {
  detail::gas_of(ctx).fetch_add(detail::task_of(ctx), ctx.rank(), addr, operand,
                                [&gate](sim::Time t, std::uint64_t) {
                                  gate.arrive(t);
                                });
}

// memget into a caller-owned destination buffer (must outlive completion).
inline void memget_nb(Context& ctx, Gva src, std::span<std::byte> dst,
                      rt::AndGate& gate) {
  detail::gas_of(ctx).memget(detail::task_of(ctx), ctx.rank(), src, dst.size(),
                             [&gate, dst](sim::Time t, std::vector<std::byte> data) {
                               NVGAS_CHECK(data.size() == dst.size());
                               std::memcpy(dst.data(), data.data(), data.size());
                               gate.arrive(t);
                             });
}

inline void migrate_nb(Context& ctx, Gva block, int dst, rt::AndGate& gate) {
  detail::gas_of(ctx).migrate(detail::task_of(ctx), ctx.rank(), block, dst,
                              [&gate](sim::Time t) { gate.arrive(t); });
}

inline void resolve_nb(Context& ctx, Gva addr, rt::AndGate& gate) {
  detail::gas_of(ctx).resolve(detail::task_of(ctx), ctx.rank(), addr,
                              [&gate](sim::Time t, int) { gate.arrive(t); });
}

// Translation prefetch: warm this rank's translation state (NIC TLB /
// software cache) for `nblocks` consecutive blocks of an allocation, so
// first accesses skip the resolve penalty. Await the returned-gate usage:
//
//   rt::AndGate gate(nblocks);
//   prefetch_nb(ctx, base, nblocks, gate);
//   co_await gate;
inline void prefetch_nb(Context& ctx, Gva base, std::uint32_t nblocks,
                        rt::AndGate& gate) {
  const auto bsize = detail::gas_of(ctx).heap().meta_of(base).block_size;
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    resolve_nb(ctx, base.advanced(static_cast<std::int64_t>(b) * bsize, bsize),
               gate);
  }
}

// Route a parcel to wherever the addressed object currently lives: resolve
// locally, send an apply-trampoline parcel to the believed owner; the
// destination runtime re-resolves and forwards if the object has moved
// (HPX's "apply at gva"). The await completes at local send time.
struct ApplyAwaiter {
  Context& ctx;
  Gva addr;
  rt::ActionId action;
  util::Buffer args;
  detail::SyncState state;

  [[nodiscard]] bool await_ready() const { return false; }
  bool await_suspend(Fiber::Handle h) {
    auto* rtp = &ctx.runtime();
    const int src = ctx.rank();
    detail::gas_of(ctx).resolve(
        detail::task_of(ctx), src, addr,
        [this, h, rtp, src](sim::Time t, int owner) {
          util::Buffer payload;
          payload.put<std::uint64_t>(addr.bits());
          payload.put<rt::ActionId>(action);
          payload.append_raw(args.bytes());
          rtp->send_parcel_at(src, t, owner, rtp->apply_action(),
                              std::move(payload));
          state.on_complete(h, t);
        });
    return state.after_issue();
  }
  void await_resume() const {}
};

[[nodiscard]] inline ApplyAwaiter apply(Context& ctx, Gva addr,
                                        rt::ActionId action, util::Buffer args) {
  return ApplyAwaiter{ctx, addr, action, std::move(args), {}};
}

}  // namespace nvgas
