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

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

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

// memcpy-based construction sidesteps a GCC 12 -Wstringop-overflow false
// positive on span-iterator vector construction at -O2.
inline std::vector<std::byte> to_vec(std::span<const std::byte> data) {
  std::vector<std::byte> out(data.size());
  if (!data.empty()) std::memcpy(out.data(), data.data(), data.size());
  return out;
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<std::byte> value_bytes(const T& value) {
  return to_vec(std::as_bytes(std::span(&value, 1)));
}

// The one awaiter behind every GAS op. `issue(ctx, done)` starts the op
// from the current CPU task and arranges for `done(t)` — `done(t, result)`
// when Result is not void — to run once, at completion time t. If `done`
// runs before `issue` returns, the fiber never suspends; otherwise it
// suspends and resumes as a CPU task at t. An `always_yield` op suspends
// and resumes as a CPU task at t even when `done` runs inside `issue`.
template <typename Result, typename Issue>
class GasAwaiter {
 public:
  GasAwaiter(Context& ctx, Issue issue, bool always_yield)
      : ctx_(ctx), issue_(std::move(issue)), suspended_(always_yield) {}

  [[nodiscard]] bool await_ready() const { return false; }
  bool await_suspend(Fiber::Handle h) {
    handle_ = h;
    if constexpr (std::is_void_v<Result>) {
      issue_(ctx_, [this](sim::Time t) { complete(t); });
    } else {
      issue_(ctx_, [this](sim::Time t, Result r) {
        result_ = std::move(r);
        complete(t);
      });
    }
    if (completed_) return false;
    suspended_ = true;
    return true;
  }
  Result await_resume() {
    if constexpr (std::is_void_v<Result>) {
      return;
    } else {
      return std::move(result_);
    }
  }

 private:
  struct NoResult {};

  void complete(sim::Time t) {
    if (!suspended_) {
      completed_ = true;
      return;
    }
    auto& p = handle_.promise();
    p.runtime->resume_fiber_at(p.node, handle_, t);
  }

  Context& ctx_;
  Issue issue_;
  bool suspended_;  // `done` resumes the fiber as a CPU task
  bool completed_ = false;
  Fiber::Handle handle_;
  [[no_unique_address]] std::conditional_t<std::is_void_v<Result>, NoResult, Result>
      result_{};
};

template <typename Result, typename Issue>
[[nodiscard]] GasAwaiter<Result, Issue> await_op(Context& ctx, Issue issue,
                                                 bool always_yield = false) {
  return {ctx, std::move(issue), always_yield};
}

// Bulk transfers over [start, start + len) split at block boundaries (a
// block is the distribution and migration unit, so single ops reject
// boundary crossings). Calls `issue_piece(at, off, n, arrived)` for each
// piece in address order — bytes [off, off + n) of the transfer, at `at` —
// and `done(t)` once the last piece has called `arrived(t)`; at once for
// an empty range.
template <typename Done, typename IssuePiece>
void split_blocks(Context& ctx, Gva start, std::size_t len, Done done,
                  IssuePiece issue_piece) {
  const std::uint32_t bsize = gas_of(ctx).heap().meta_of(start).block_size;
  if (len == 0) {
    done(task_of(ctx).now());
    return;
  }
  const std::size_t first = std::min<std::size_t>(bsize - start.offset(), len);
  auto remaining =
      std::make_shared<std::uint64_t>(1 + (len - first + bsize - 1) / bsize);
  const auto arrived = [remaining, done = std::move(done)](sim::Time t) {
    if (--*remaining == 0) done(t);
  };
  for (std::size_t off = 0; off < len;) {
    const Gva at = start.advanced(static_cast<std::int64_t>(off), bsize);
    const std::size_t n = std::min<std::size_t>(bsize - at.offset(), len - off);
    issue_piece(at, off, n, arrived);
    off += n;
  }
}

}  // namespace detail

// --- memput ----------------------------------------------------------------

[[nodiscard]] inline auto memput(Context& ctx, Gva dst, std::vector<std::byte> data) {
  return detail::await_op<void>(
      ctx, [dst, data = std::move(data)](Context& c, auto done) mutable {
        detail::gas_of(c).memput(detail::task_of(c), c.rank(), dst,
                                 std::move(data), std::move(done));
      });
}

[[nodiscard]] inline auto memput(Context& ctx, Gva dst,
                                 std::span<const std::byte> data) {
  return memput(ctx, dst, detail::to_vec(data));
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
[[nodiscard]] auto memput_value(Context& ctx, Gva dst, const T& value) {
  return memput(ctx, dst, detail::value_bytes(value));
}

// memput with remote notification: besides completing at the sender, the
// put triggers `remote_event` (an LCO registered on the block's OWNER
// node) the instant the data is visible there — Photon's remote
// completion ledger. Producer/consumer without parcels:
//
//   consumer (on owner):  rt::Event arrived;           // registered ref
//                         co_await arrived;            // data is there
//   producer:             co_await memput_signal(ctx, dst, data, ref);
[[nodiscard]] inline auto memput_signal(Context& ctx, Gva dst,
                                        std::vector<std::byte> data,
                                        rt::LcoRef remote_event) {
  return detail::await_op<void>(
      ctx, [dst, data = std::move(data), remote_event](Context& c,
                                                       auto done) mutable {
        detail::gas_of(c).memput_notify(
            detail::task_of(c), c.rank(), dst, std::move(data), std::move(done),
            [rtp = &c.runtime(), remote_event](sim::Time t) {
              rtp->ledger_set(remote_event, t);
            });
      });
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
[[nodiscard]] auto memput_signal_value(Context& ctx, Gva dst, const T& value,
                                       rt::LcoRef remote_event) {
  return memput_signal(ctx, dst, detail::value_bytes(value), remote_event);
}

// --- memget ----------------------------------------------------------------

[[nodiscard]] inline auto memget(Context& ctx, Gva src, std::size_t len) {
  return detail::await_op<std::vector<std::byte>>(
      ctx, [src, len](Context& c, auto done) {
        detail::gas_of(c).memget(detail::task_of(c), c.rank(), src, len,
                                 std::move(done));
      });
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
[[nodiscard]] auto memget_value(Context& ctx, Gva src) {
  return detail::await_op<T>(ctx, [src](Context& c, auto done) {
    detail::gas_of(c).memget(
        detail::task_of(c), c.rank(), src, sizeof(T),
        [done = std::move(done)](sim::Time t, std::vector<std::byte> bytes) {
          NVGAS_CHECK(bytes.size() == sizeof(T));
          T out;
          std::memcpy(&out, bytes.data(), sizeof(T));
          done(t, out);
        });
  });
}

// --- fetch_add, resolve, migrate ---------------------------------------------

[[nodiscard]] inline auto fetch_add(Context& ctx, Gva addr, std::uint64_t operand) {
  return detail::await_op<std::uint64_t>(ctx, [addr, operand](Context& c, auto done) {
    detail::gas_of(c).fetch_add(detail::task_of(c), c.rank(), addr, operand,
                                std::move(done));
  });
}

// The addressed block's owner as this rank currently believes it.
[[nodiscard]] inline auto resolve(Context& ctx, Gva addr) {
  return detail::await_op<int>(ctx, [addr](Context& c, auto done) {
    detail::gas_of(c).resolve(detail::task_of(c), c.rank(), addr, std::move(done));
  });
}

[[nodiscard]] inline auto migrate(Context& ctx, Gva block, int dst) {
  return detail::await_op<void>(ctx, [block, dst](Context& c, auto done) {
    detail::gas_of(c).migrate(detail::task_of(c), c.rank(), block, dst,
                              std::move(done));
  });
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
// memput/memget across block boundaries: one op per block, issued
// back to back; the await completes when the last one does. A non-empty
// spanning op always yields, even when every piece is local.

[[nodiscard]] inline auto memput_span(Context& ctx, Gva dst,
                                      std::vector<std::byte> data) {
  const bool yield = !data.empty();
  return detail::await_op<void>(
      ctx,
      [dst, data = std::move(data)](Context& c, auto done) {
        detail::split_blocks(
            c, dst, data.size(), std::move(done),
            [&](Gva at, std::size_t off, std::size_t n, const auto& arrived) {
              detail::gas_of(c).memput(
                  detail::task_of(c), c.rank(), at,
                  detail::to_vec(std::span(data).subspan(off, n)), arrived);
            });
      },
      yield);
}

[[nodiscard]] inline auto memget_span(Context& ctx, Gva src, std::size_t len) {
  return detail::await_op<std::vector<std::byte>>(
      ctx, [src, len, out = std::vector<std::byte>()](Context& c,
                                                      auto done) mutable {
        out.assign(len, std::byte{});
        detail::split_blocks(
            c, src, len,
            [&out, done = std::move(done)](sim::Time t) { done(t, std::move(out)); },
            [&](Gva at, std::size_t off, std::size_t n, const auto& arrived) {
              detail::gas_of(c).memget(
                  detail::task_of(c), c.rank(), at, n,
                  [arrived, dst = out.data() + off](sim::Time t,
                                                   std::vector<std::byte> piece) {
                    std::memcpy(dst, piece.data(), piece.size());
                    arrived(t);
                  });
            });
      },
      len != 0);
}

// --- memcpy between global addresses ----------------------------------------

[[nodiscard]] inline auto memcpy_gva(Context& ctx, Gva dst, Gva src,
                                     std::size_t len) {
  return detail::await_op<void>(ctx, [dst, src, len](Context& c, auto done) {
    detail::gas_of(c).memcpy_gva(detail::task_of(c), c.rank(), dst, src, len,
                                 std::move(done));
  });
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
  memput_nb(ctx, dst, detail::value_bytes(value), gate);
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

// The apply-trampoline wire format, [u64 gva | ActionId | args]. Every
// sender encodes with this: apply(), the forwarding hop of the World's
// nvgas.apply action (the one decoder, next to this in world.cpp), and
// callers that ship the parcel through another path such as an
// rt::Coalescer. The header is prepended into `args` in place.
[[nodiscard]] util::Buffer encode_apply(Gva addr, rt::ActionId action,
                                        util::Buffer args);

// Route a parcel to wherever the addressed object currently lives: resolve
// locally, send an apply-trampoline parcel to the believed owner; the
// destination runtime re-resolves and forwards if the object has moved
// (HPX's "apply at gva"). The await completes at local send time.
[[nodiscard]] inline auto apply(Context& ctx, Gva addr, rt::ActionId action,
                                util::Buffer args) {
  return detail::await_op<void>(
      ctx, [addr, action, args = std::move(args)](Context& c, auto done) mutable {
        const int src = c.rank();
        detail::gas_of(c).resolve(
            detail::task_of(c), src, addr,
            [rtp = &c.runtime(), src, addr, action, args = std::move(args),
             done = std::move(done)](sim::Time t, int owner) mutable {
              rtp->send_parcel_at(src, t, owner, rtp->apply_action(),
                                  encode_apply(addr, action, std::move(args)));
              done(t);
            });
      });
}

// Named so callers can return an apply() from their own functions.
using ApplyAwaiter = decltype(apply(std::declval<Context&>(), Gva{},
                                    rt::ActionId{}, util::Buffer{}));

}  // namespace nvgas
