// GasBase: the common interface of the three address-space managers
// (PGAS baseline, software AGAS baseline, network-managed AGAS).
//
// Operations are asynchronous with completion callbacks; core::World
// adapts them to awaitables for fibers. Every data-path call
// is made from within a CPU task on `node` and charges its software costs
// to that task, so the managers are directly comparable.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "gas/costs.hpp"
#include "gas/gheap.hpp"
#include "gas/gva.hpp"
#include "net/endpoint.hpp"
#include "net/nic_tlb.hpp"
#include "sim/cpu.hpp"
#include "sim/fabric.hpp"
#include "util/slab.hpp"

namespace nvgas::gas {

enum class GasMode : std::uint8_t { kPgas = 0, kAgasSw = 1, kAgasNet = 2 };

[[nodiscard]] constexpr const char* to_string(GasMode mode) {
  switch (mode) {
    case GasMode::kPgas: return "pgas";
    case GasMode::kAgasSw: return "agas-sw";
    case GasMode::kAgasNet: return "agas-net";
  }
  return "?";
}

// Inverse of to_string: the mode named `name`, or nullopt if none is.
[[nodiscard]] constexpr std::optional<GasMode> parse_mode(std::string_view name) {
  for (const GasMode mode : {GasMode::kPgas, GasMode::kAgasSw, GasMode::kAgasNet}) {
    if (name == to_string(mode)) return mode;
  }
  return std::nullopt;
}

// The completions of get, fetch_add and resolve: the bytes read, the old
// word, the block's owner. Like net::OnDone, public API boundary types:
// the op record holds one while the op is in flight, and every hop
// carries only the record's id.
// simlint:allow(D4: public API boundary type, parked in the op record and moved once per op)
using OnData = std::function<void(sim::Time, std::vector<std::byte>)>;
// simlint:allow(D4: public API boundary type, parked in the op record and moved once per op)
using OnU64 = std::function<void(sim::Time, std::uint64_t)>;
// simlint:allow(D4: public API boundary type, parked in the op record and moved once per op)
using OnOwner = std::function<void(sim::Time, int owner)>;

// One in-flight GAS op, whatever its manager. GasBase parks it in its op
// slab at the front door and unparks it at completion; every hop's
// closure carries only its slab id, down to the endpoint's get and
// fetch_add verbs.
struct OpRecord {
  static constexpr std::uint32_t kNoOp = ~std::uint32_t{0};
  // The caller's completion. Its alternative is the op's kind, in the
  // order of Kind.
  using Done = std::variant<net::OnDone, OnData, OnU64, OnOwner>;
  enum class Kind : std::uint8_t { kPut, kGet, kFadd, kResolve };

  OpRecord() = default;
  template <typename Completion>
  OpRecord(int issuer, Gva address, Completion&& completion) noexcept
      : node(issuer), addr(address), done(std::forward<Completion>(completion)) {}

  int node = -1;  // the issuing node
  Gva addr;
  std::uint32_t len = 0;        // get length
  std::uint64_t value = 0;      // fetch_add operand in, old word out
  std::vector<std::byte> data;  // put payload in, get result out
  std::uint32_t next = kNoOp;   // agas-sw: next op waiting on one resolve
  int hops = 0;                 // agas-net: wire hops so far (watchdog)
  bool used_hint = false;       // agas-net: a hint forward is taken once
  // The translation the op ran against, or the one its reply piggybacks;
  // a resolve answers with its owner.
  net::TlbEntry entry;
  Done done;
  net::OnDone on_remote;  // put's remote notification, instrumented

  [[nodiscard]] Kind kind() const { return static_cast<Kind>(done.index()); }
};

class InvariantObserver;  // gas/invariants.hpp

// Passive consumer of the full data-path access stream (local hits
// included), independent of the InvariantObserver slot so heat tracking
// (src/lb) can run alongside protocol checking. Hooks fire at op issue
// time on the issuing node, charge nothing, and must not call back into
// the manager's data path.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  // A data-path op (put/get/fadd/resolve) from `node` targeted
  // `block_key`, wherever the block lives.
  virtual void on_access(int node, std::uint64_t block_key) = 0;
  // The block's translation state was dropped (free_alloc): the key may
  // be recycled, so any retained per-block state must be discarded.
  virtual void on_block_freed(std::uint64_t block_key) = 0;
};

// The manager is every endpoint's RMA sink: a get or fetch_add posted
// for op `id` completes into ops_[id].
class GasBase : private net::RmaSink {
 public:
  GasBase(sim::Fabric& fabric, net::EndpointGroup& endpoints, GlobalHeap& heap)
      : fabric_(&fabric), endpoints_(&endpoints), heap_(&heap) {
    for (int n = 0; n < endpoints.size(); ++n) endpoints.at(n).set_rma_sink(this);
  }
  virtual ~GasBase() = default;
  GasBase(const GasBase&) = delete;
  GasBase& operator=(const GasBase&) = delete;

  [[nodiscard]] virtual GasMode mode() const = 0;
  [[nodiscard]] virtual bool supports_migration() const = 0;

  // --- allocation ---------------------------------------------------------
  // Reserves blocks on their home ranks. Metadata becomes globally
  // consistent at return (the deterministic simulator stands in for the
  // allocation collective); the handshake cost is charged to `task`.
  virtual Gva alloc(sim::TaskCtx& task, int node, Dist dist,
                    std::uint32_t nblocks, std::uint32_t block_size);

  // Release an allocation: frees every block's backing store at its
  // CURRENT owner and drops all translation state. Collective semantics:
  // the caller must ensure no accesses or migrations are in flight
  // (standard PGAS free contract); violations abort.
  virtual void free_alloc(sim::TaskCtx& task, int node, Gva base);

  // --- data path ----------------------------------------------------------
  // Every op enters through one of these front doors, which do the shared
  // prologue (extent check, op counter, access observation, signal
  // instrumentation), park the op's record and hand its id to the
  // manager's start.
  void memput(sim::TaskCtx& task, int node, Gva dst, std::vector<std::byte> data,
              net::OnDone done) {
    memput_notify(task, node, dst, std::move(data), std::move(done), nullptr);
  }

  // Put with remote notification: `remote_notify` fires at the CURRENT
  // owner the instant the data is visible there (Photon's remote
  // completion ledger), or at local completion when the issuer owns the
  // block. Used for producer/consumer signalling without parcels.
  void memput_notify(sim::TaskCtx& task, int node, Gva dst,
                     std::vector<std::byte> data, net::OnDone done,
                     net::OnDone remote_notify);
  void memget(sim::TaskCtx& task, int node, Gva src, std::size_t len,
              OnData done);
  void fetch_add(sim::TaskCtx& task, int node, Gva addr, std::uint64_t operand,
                 OnU64 done);

  // Resolve the current owner of the addressed block (used to route
  // parcels to mobile objects). Like every front door, it aborts on an
  // address outside a live allocation.
  void resolve(sim::TaskCtx& task, int node, Gva addr, OnOwner done);

  // The apply trampoline at `at` resolved `addr` at `t` to another node
  // and forwarded the parcel that `sender` had routed to it, so
  // `sender`'s translation is stale. A manager whose sources learn only
  // from replies repairs it here. The default does nothing: pgas never
  // forwards, and agas-sw's invalidations already repair every sharer.
  virtual void repair_sender(sim::Time /*t*/, int /*at*/, int /*sender*/,
                             Gva /*addr*/) {}

  // Copy `len` bytes between global addresses (each range within one
  // block). Composed from memget+memput through the issuing node.
  void memcpy_gva(sim::TaskCtx& task, int node, Gva dst, Gva src,
                  std::size_t len, net::OnDone done);

  // --- mobility -----------------------------------------------------------
  // Move the addressed block to `dst`. Managers without mobility abort.
  virtual void migrate(sim::TaskCtx& task, int node, Gva block, int dst,
                       net::OnDone done) = 0;

  // --- introspection (host-side, for tests/benches; charges nothing) ------
  [[nodiscard]] virtual std::pair<int, sim::Lva> owner_of(Gva block) const = 0;

  // --- protocol invariant observation (mcheck + tests) ---------------------
  // Attach a gas::InvariantObserver: the manager reports protocol events
  // (remote-op begin/end, fence completion, migration commit, notify
  // signals) through it and never reads it back. Null detaches. The
  // observer must outlive every reported event or detach first.
  void set_observer(InvariantObserver* observer) { observer_ = observer; }
  [[nodiscard]] InvariantObserver* observer() const { return observer_; }

  // Attach an AccessObserver (see above). Null detaches. Independent of
  // the InvariantObserver slot; both may be attached at once.
  void set_access_observer(AccessObserver* observer) {
    access_observer_ = observer;
  }
  [[nodiscard]] AccessObserver* access_observer() const {
    return access_observer_;
  }

  // Pull-based structure audits (see docs/MODEL_CHECKING.md). Both return
  // "" when the check passes, else a description of the first violation.
  // audit_translation: every cached translation anywhere agrees with the
  // authoritative record for its block (callable at any quiescent event
  // boundary, including mid-scenario). audit_quiescent: no protocol
  // state is left in flight (end of run only); the base names the first
  // op still parked, by kind, block and issuing node, and managers add
  // their own state.
  [[nodiscard]] virtual std::string audit_translation() const { return {}; }
  [[nodiscard]] virtual std::string audit_quiescent() const;

  [[nodiscard]] GlobalHeap& heap() { return *heap_; }

 protected:
  [[nodiscard]] sim::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] net::Endpoint& ep(int node) { return endpoints_->at(node); }
  [[nodiscard]] int ranks() const { return fabric_->nodes(); }

  // The manager-specific half of every data-path op: carry out the op
  // parked as `id`, called by its front door after the shared prologue.
  // The op ends in finish or finish_here.
  virtual void start(sim::TaskCtx& task, std::uint32_t id) = 0;

  // Take op `id` out of the slab and run its completion at `t` with the
  // record's result: a get's data, a fetch_add's old word, a resolve's
  // entry.owner. A put's remote notification, if still held, runs after.
  void finish(sim::Time t, std::uint32_t id);
  // Carry out put, get or fetch_add `id` against `lva` on its issuing
  // node, which owns the block, charging the copy or atomic to `task`,
  // and finish it.
  void finish_here(sim::TaskCtx& task, std::uint32_t id, sim::Lva lva);
  // Post op `id`'s put, get or fetch_add from its issuer's endpoint to
  // `lva` at `owner`, charging the post to `task`; a get or fetch_add
  // carries `id` to the wire. When the verb completes, its result is in
  // the record and rma_done runs: it finishes the op, after any
  // bookkeeping the manager keeps per RMA.
  void post_rma(sim::TaskCtx& task, std::uint32_t id, int owner, sim::Lva lva);
  virtual void rma_done(sim::Time t, std::uint32_t id) { finish(t, id); }

  // free_alloc hook: drop one block's translation state and return its
  // current {owner, lva} so the base can release the backing store. The
  // default (PGAS) has no dynamic state: placement is the initial one.
  virtual std::pair<int, sim::Lva> drop_block_state(Gva block_base);

  sim::Fabric* fabric_;
  net::EndpointGroup* endpoints_;
  GlobalHeap* heap_;
  InvariantObserver* observer_ = nullptr;
  AccessObserver* access_observer_ = nullptr;
  util::Slab<OpRecord> ops_{"gas op"};  // in-flight ops by id

 private:
  // net::RmaSink: store a posted verb's result in its record, then
  // rma_done.
  void get_done(sim::Time t, std::uint32_t id, std::vector<std::byte> data) final;
  void fetch_add_done(sim::Time t, std::uint32_t id, std::uint64_t old) final;

  // Report one data-path access to the attached AccessObserver (no-op
  // when none); purely observational, charges nothing.
  void note_access(int node, Gva addr) const {
    if (access_observer_ != nullptr) access_observer_->on_access(node, addr.block_key());
  }

  // Wrap a memput_notify remote-notification callback in the observer's
  // exactly-once signal ledger; identity when no observer is attached.
  [[nodiscard]] net::OnDone instrument_signal(net::OnDone remote_notify) const;
};

}  // namespace nvgas::gas
