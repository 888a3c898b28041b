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
//     moved (one extra wire hop, no CPU), parks ops while a block's
//     migration is in flight (gas::MoveSequencer, shared with agas-sw);
//   * previous-owner NIC: keeps an unpinned forwarding hint after the
//     block leaves, so stale sources get forwarded directly to the new
//     owner;
//   * owner NIC: executes the DMA/atomic and acks the source, piggybacking
//     a TLB update so the source's next op goes direct.
//
// Target CPUs are NEVER on the data path. Migration involves exactly one
// CPU task (backing-store allocation at the destination); the commit is
// an atomic remap of the home NIC's entry.
#pragma once

#include <vector>

#include "gas/gas_api.hpp"
#include "gas/move_sequencer.hpp"
#include "net/nic_tlb.hpp"

namespace nvgas::gas {

struct AgasNetConfig {
  std::size_t tlb_capacity = 65536;  // cached (unpinned) entries per NIC
};

class AgasNet final : public GasBase {
 public:
  AgasNet(sim::Fabric& fabric, net::EndpointGroup& endpoints,
          GlobalHeap& heap, AgasNetConfig config);

  [[nodiscard]] GasMode mode() const override {
    return GasMode::kAgasNet;
  }
  [[nodiscard]] bool supports_migration() const override { return true; }

  Gva alloc(sim::TaskCtx& task, int node, Dist dist, std::uint32_t nblocks,
            std::uint32_t block_size) override;

  void migrate(sim::TaskCtx& task, int node, Gva block, int dst,
               net::OnDone done) override;

  [[nodiscard]] std::pair<int, sim::Lva> owner_of(Gva block) const override;

  // Forward-time repair: `at`'s NIC sends `sender`'s NIC the entry its
  // TLB holds for the block — the one `at`'s resolve answered with — in
  // one message, installed like a reply's piggyback. No CPU at `sender`.
  void repair_sender(sim::Time t, int at, int sender, Gva addr) override;

  // mcheck invariant audits (see docs/MODEL_CHECKING.md). Unlike the
  // software AGAS, non-home TLB entries MAY be stale — but only by
  // bounded amounts: an entry's generation can never exceed the home's
  // (+1 while a remap is in flight), current-generation entries must
  // agree with the home on owner/base, pinned or in-flight state is
  // confined to the home (plus the committed new owner's pinned copy),
  // and a committed non-home owner holds that pinned copy.
  [[nodiscard]] std::string audit_translation() const override;
  [[nodiscard]] std::string audit_quiescent() const override;

  [[nodiscard]] const net::NicTlb& tlb(int node) const {
    return tlbs_.at(static_cast<std::size_t>(node));
  }

 protected:
  // Source-side issue: the CPU posts the descriptor and the source NIC
  // looks up its TLB, then executes a local op or sends it to the owner
  // or the home. A resolve is answered from the TLB, or by the home NIC
  // on a miss.
  void start(sim::TaskCtx& task, std::uint32_t id) override;
  std::pair<int, sim::Lva> drop_block_state(Gva block_base) override;

 private:
  [[nodiscard]] net::NicTlb& tlb_mut(int node) {
    return tlbs_.at(static_cast<std::size_t>(node));
  }
  [[nodiscard]] int home_of(Gva block_base) const {
    return block_base.home(fabric_->nodes());
  }

  // NIC-level routing at `at` when the op message arrives (time `t` is
  // post-rx-port).
  void route(sim::Time t, int at, std::uint32_t id);
  void send_op(sim::Time depart, int from, int to, std::uint32_t id);

  // Execute at the verified owner.
  void execute(sim::Time t, int owner, const net::TlbEntry& entry,
               std::uint32_t id);
  // Install an unpinned copy of `entry`, piggybacked on a reply, in the
  // TLB of `node`, unless `node` holds a pinned or newer entry
  // (NicTlb::update).
  void piggyback(int node, std::uint64_t key, net::TlbEntry entry);
  // Ack/reply to the source, piggybacking the owner's translation; the
  // op ends once the source has it.
  void reply(sim::Time depart, int owner, std::uint32_t id);
  // Report the op's end to the observer, then finish it at `t`.
  void end_op(sim::Time t, std::uint32_t id);

  // Migration steps (NIC-level at the home except the dst allocation).
  void mig_request(sim::Time t, Gva block_base, MoveRequest req);
  void mig_alloc_ok(sim::Time t, Gva block_base, sim::Lva dst_lva);
  void mig_commit(sim::Time t, Gva block_base);
  // Send the initiator its completion notice (always a message).
  void notify_initiator(sim::Time depart, int home, MoveRequest req);

  std::vector<net::NicTlb> tlbs_;
  MoveSequencer moves_;  // parks op ids at the home NIC
};

}  // namespace nvgas::gas
