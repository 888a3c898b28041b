// Network-managed AGAS: the paper's contribution.
//
// The GVA→{owner, lva} mapping lives in NIC-resident translation tables
// (net::NicTlb), and every step of the data path executes on NIC command
// processors:
//
//   * source NIC: TLB lookup; hit → send to owner, miss → send to home
//     (the home rank is arithmetic on the address, so a miss needs no
//     software);
//   * home NIC: pinned authoritative entry; forwards ops for blocks that
//     moved (one extra wire hop, no CPU), queues ops while a block's
//     migration is in flight;
//   * previous-owner NIC: keeps an unpinned forwarding hint after the
//     block leaves, so stale sources get forwarded directly to the new
//     owner;
//   * owner NIC: executes the DMA/atomic and acks the source, piggybacking
//     a TLB update so the source's next op goes direct.
//
// Target CPUs are NEVER on the data path. Migration involves exactly one
// CPU task (backing-store allocation at the destination); the commit is
// an atomic remap of the home NIC's entry.
//
// Ablation knobs (AgasNetConfig) cover the design choices benchmarked in
// R-T3: forwarding vs NACK-to-source, hint forwarding, piggyback updates.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "gas/gas_api.hpp"
#include "net/nic_tlb.hpp"

namespace nvgas::core {

struct AgasNetConfig {
  bool piggyback_updates = true;  // acks update the source NIC TLB
  bool forward_hints = true;      // previous owner forwards directly
  bool nack_on_stale = false;     // NACK-to-source instead of forwarding
  std::size_t tlb_capacity = 65536;
};

class AgasNet final : public gas::GasBase {
 public:
  AgasNet(sim::Fabric& fabric, net::EndpointGroup& endpoints,
          gas::GlobalHeap& heap, gas::GasCosts costs, AgasNetConfig config);

  [[nodiscard]] gas::GasMode mode() const override {
    return gas::GasMode::kAgasNet;
  }
  [[nodiscard]] bool supports_migration() const override { return true; }

  gas::Gva alloc(sim::TaskCtx& task, int node, gas::Dist dist,
                 std::uint32_t nblocks, std::uint32_t block_size) override;

  void memput(sim::TaskCtx& task, int node, gas::Gva dst,
              std::vector<std::byte> data, net::OnDone done) override;
  void memput_notify(sim::TaskCtx& task, int node, gas::Gva dst,
                     std::vector<std::byte> data, net::OnDone done,
                     net::OnDone remote_notify) override;
  void memget(sim::TaskCtx& task, int node, gas::Gva src, std::size_t len,
              net::OnData done) override;
  void fetch_add(sim::TaskCtx& task, int node, gas::Gva addr,
                 std::uint64_t operand, net::OnU64 done) override;
  void resolve(sim::TaskCtx& task, int node, gas::Gva addr,
               gas::OnOwner done) override;
  void migrate(sim::TaskCtx& task, int node, gas::Gva block, int dst,
               net::OnDone done) override;

  [[nodiscard]] std::pair<int, sim::Lva> owner_of(gas::Gva block) const override;

  // mcheck invariant audits (see docs/MODEL_CHECKING.md). Unlike the
  // software AGAS, non-home TLB entries MAY be stale — but only by
  // bounded amounts: an entry's generation can never exceed the home's
  // (+1 while a remap is in flight), current-generation entries must
  // agree with the home on owner/base, and pinned or in-flight state is
  // confined to the home (plus the committed new owner's pinned copy).
  [[nodiscard]] std::string audit_translation() const override;
  [[nodiscard]] std::string audit_quiescent() const override;

  [[nodiscard]] const net::NicTlb& tlb(int node) const {
    return *tlbs_.at(static_cast<std::size_t>(node));
  }
  [[nodiscard]] const AgasNetConfig& config() const { return config_; }

 protected:
  std::pair<int, sim::Lva> drop_block_state(gas::Gva block_base) override;

 private:
  struct Op {
    enum class Kind : std::uint8_t { kPut, kGet, kFadd };
    Kind kind = Kind::kPut;
    int src = -1;
    std::uint64_t key = 0;
    std::uint32_t offset = 0;
    std::vector<std::byte> data;   // put payload
    std::uint32_t len = 0;         // get length
    std::uint64_t operand = 0;     // fadd operand
    int hops = 0;
    bool used_hint = false;  // a hint forward may be taken only once
    net::OnDone on_done;
    net::OnData on_data;
    net::OnU64 on_u64;
    net::OnDone on_remote;  // put-with-remote-notification (ledger)

    [[nodiscard]] std::uint64_t wire_bytes() const;
  };

  struct Migration {
    int dst = -1;
    int initiator = -1;
    sim::Lva dst_lva = 0;
    net::OnDone done;
  };
  struct PendingMigration {
    int dst;
    int initiator;
    net::OnDone done;
  };

  [[nodiscard]] net::NicTlb& tlb_mut(int node) {
    return *tlbs_.at(static_cast<std::size_t>(node));
  }
  [[nodiscard]] int home_of(gas::Gva block_base) const {
    return block_base.home(fabric_->nodes());
  }
  [[nodiscard]] static gas::Gva base_of_key(std::uint64_t key) {
    return gas::Gva(key);
  }

  // Source-side issue: CPU posts the descriptor, the source NIC looks up
  // its TLB and targets the owner or the home.
  void issue(sim::TaskCtx& task, int node, Op op);

  // NIC-level routing at `at` when the op message arrives (time `t` is
  // post-rx-port).
  void route(sim::Time t, int at, Op op);
  void send_op(sim::Time depart, int from, int to, Op op);

  // Execute at the verified owner.
  void execute(sim::Time t, int owner, const net::TlbEntry& entry, Op op);
  // Install a piggybacked translation update at `node` (skipped at the
  // block's home, whose pinned entry is authoritative).
  void maybe_piggyback(int node, std::uint64_t key, const net::TlbEntry& update);
  // Ack/reply to the source, with optional piggybacked TLB update.
  void reply(sim::Time depart, int owner, const net::TlbEntry& entry, Op op,
             std::vector<std::byte> get_data, std::uint64_t fadd_old);

  // Migration steps (NIC-level at the home except the dst allocation).
  void mig_request(sim::Time t, gas::Gva block_base, int dst, int initiator,
                   net::OnDone done);
  void mig_alloc_ok(sim::Time t, gas::Gva block_base, sim::Lva dst_lva);
  void mig_commit(sim::Time t, gas::Gva block_base);
  void chain_queued_migration(sim::Time t, gas::Gva block_base);
  void notify_initiator(sim::Time depart, int home, int initiator,
                        net::OnDone done);

  // Home-side migration state, partitioned by home node: every access
  // is keyed by a block whose home coordinates it.
  struct HomeState {
    // simlint:allow(D1: keyed find/erase only, never iterated)
    std::unordered_map<std::uint64_t, Migration> migrations;
    // simlint:allow(D1: vector extracted per key; the map is never iterated)
    std::unordered_map<std::uint64_t, std::vector<Op>> queued_ops;
    // simlint:allow(D1: vector extracted per key; the map is never iterated)
    std::unordered_map<std::uint64_t, std::vector<PendingMigration>> queued_migs;
  };
  [[nodiscard]] HomeState& hstate(std::uint64_t key) {
    return homes_.at(static_cast<std::size_t>(home_of(base_of_key(key))));
  }

  AgasNetConfig config_;
  std::vector<std::unique_ptr<net::NicTlb>> tlbs_;
  std::vector<HomeState> homes_;
};

}  // namespace nvgas::core
