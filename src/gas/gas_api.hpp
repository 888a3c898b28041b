// GasBase: the common interface of the three address-space managers
// (PGAS baseline, software AGAS baseline, network-managed AGAS).
//
// Operations are asynchronous with completion callbacks at the net layer;
// core::World adapts them to awaitables for fibers. Every data-path call
// is made from within a CPU task on `node` and charges its software costs
// to that task, so the managers are directly comparable.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gas/costs.hpp"
#include "gas/gheap.hpp"
#include "gas/gva.hpp"
#include "net/endpoint.hpp"
#include "sim/cpu.hpp"
#include "sim/fabric.hpp"

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

// Owner resolution result delivered to `OnOwner`.
using OnOwner = std::function<void(sim::Time, int owner)>;

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
  // `block_key` and the issuing node currently owns the block.
  virtual void on_local_access(int node, std::uint64_t block_key) = 0;
  // Same, but the block currently lives on another node.
  virtual void on_remote_access(int node, std::uint64_t block_key) = 0;
  // The block's translation state was dropped (free_alloc): the key may
  // be recycled, so any retained per-block state must be discarded.
  virtual void on_block_freed(std::uint64_t block_key) = 0;
};

class GasBase {
 public:
  GasBase(sim::Fabric& fabric, net::EndpointGroup& endpoints, GlobalHeap& heap,
          GasCosts costs)
      : fabric_(&fabric), endpoints_(&endpoints), heap_(&heap), costs_(costs) {}
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
  virtual void memput(sim::TaskCtx& task, int node, Gva dst,
                      std::vector<std::byte> data, net::OnDone done) = 0;

  // Put with remote notification: `remote_notify` fires at the CURRENT
  // owner the instant the data is visible there (Photon's remote
  // completion ledger). Used for producer/consumer signalling without
  // parcels. The default forwards to memput and fires the notification at
  // local-completion time with the resolved owner-side semantics lost —
  // managers whose put path reaches the target directly override it.
  virtual void memput_notify(sim::TaskCtx& task, int node, Gva dst,
                             std::vector<std::byte> data, net::OnDone done,
                             net::OnDone remote_notify) = 0;
  virtual void memget(sim::TaskCtx& task, int node, Gva src, std::size_t len,
                      net::OnData done) = 0;
  virtual void fetch_add(sim::TaskCtx& task, int node, Gva addr,
                         std::uint64_t operand, net::OnU64 done) = 0;

  // Resolve the current owner of the addressed block (used to route
  // parcels to mobile objects).
  virtual void resolve(sim::TaskCtx& task, int node, Gva addr, OnOwner done) = 0;

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
  // state is left in flight (end of run only).
  [[nodiscard]] virtual std::string audit_translation() const { return {}; }
  [[nodiscard]] virtual std::string audit_quiescent() const { return {}; }

  [[nodiscard]] GlobalHeap& heap() { return *heap_; }
  [[nodiscard]] const GasCosts& costs() const { return costs_; }

 protected:
  [[nodiscard]] sim::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] net::Endpoint& ep(int node) { return endpoints_->at(node); }
  [[nodiscard]] int ranks() const { return fabric_->nodes(); }

  // Report one data-path access to the attached AccessObserver (no-op
  // when none). Classifies local vs remote against the authoritative
  // current owner; purely observational, charges nothing.
  void note_access(int node, Gva addr) const {
    if (access_observer_ == nullptr) return;
    if (owner_of(addr.block_base()).first == node) {
      access_observer_->on_local_access(node, addr.block_key());
    } else {
      access_observer_->on_remote_access(node, addr.block_key());
    }
  }

  // Wrap a memput_notify remote-notification callback in the observer's
  // exactly-once signal ledger; identity when no observer is attached.
  [[nodiscard]] net::OnDone instrument_signal(net::OnDone remote_notify) const;

  // free_alloc hook: drop one block's translation state and return its
  // current {owner, lva} so the base can release the backing store. The
  // default (PGAS) has no dynamic state: placement is the initial one.
  virtual std::pair<int, sim::Lva> drop_block_state(Gva block_base);

  // Local (owner == issuer) data-path helpers shared by all managers.
  void local_put(sim::TaskCtx& task, int node, sim::Lva lva,
                 std::span<const std::byte> data, const net::OnDone& done);
  void local_get(sim::TaskCtx& task, int node, sim::Lva lva, std::size_t len,
                 const net::OnData& done);
  void local_fadd(sim::TaskCtx& task, int node, sim::Lva lva,
                  std::uint64_t operand, const net::OnU64& done);

  sim::Fabric* fabric_;
  net::EndpointGroup* endpoints_;
  GlobalHeap* heap_;
  GasCosts costs_;
  InvariantObserver* observer_ = nullptr;
  AccessObserver* access_observer_ = nullptr;
};

}  // namespace nvgas::gas
