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
#include "util/slab.hpp"

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

  // mcheck invariant audits (see docs/MODEL_CHECKING.md). Unlike the
  // software AGAS, non-home TLB entries MAY be stale — but only by
  // bounded amounts: an entry's generation can never exceed the home's
  // (+1 while a remap is in flight), current-generation entries must
  // agree with the home on owner/base, pinned or in-flight state is
  // confined to the home (plus the committed new owner's pinned copy),
  // and a committed non-home owner holds that pinned copy.
  // audit_quiescent also reports ops still parked in the slab: an op
  // that never completes would otherwise only leave a fiber waiting.
  [[nodiscard]] std::string audit_translation() const override;
  [[nodiscard]] std::string audit_quiescent() const override;

  [[nodiscard]] const net::NicTlb& tlb(int node) const {
    return tlbs_.at(static_cast<std::size_t>(node));
  }

 protected:
  void do_memput(sim::TaskCtx& task, int node, Gva dst,
                 std::vector<std::byte> data, net::OnDone done,
                 net::OnDone remote_notify) override;
  void do_memget(sim::TaskCtx& task, int node, Gva src, std::size_t len,
                 net::OnData done) override;
  void do_fetch_add(sim::TaskCtx& task, int node, Gva addr,
                    std::uint64_t operand, net::OnU64 done) override;
  void do_resolve(sim::TaskCtx& task, int node, Gva addr,
                  OnOwner done) override;
  std::pair<int, sim::Lva> drop_block_state(Gva block_base) override;

 private:
  // An in-flight GVA op. It is parked in the ops_ slab from issue to
  // completion, and every hop's closure carries only its slab id.
  struct Op {
    enum class Kind : std::uint8_t { kPut, kGet, kFadd };
    Kind kind = Kind::kPut;
    bool used_hint = false;  // a hint forward may be taken only once
    int src = -1;            // the issuing node
    std::uint64_t key = 0;
    std::uint32_t offset = 0;
    std::uint32_t len = 0;         // get length
    std::vector<std::byte> data;   // put payload; get result
    std::uint64_t operand = 0;     // fadd operand
    std::uint64_t fadd_old = 0;    // fadd result
    int hops = 0;
    net::TlbEntry entry;  // owner's translation, piggybacked on the reply
    net::OnDone on_done;
    net::OnData on_data;
    net::OnU64 on_u64;
    net::OnDone on_remote;  // put-with-remote-notification (ledger)

    [[nodiscard]] std::uint64_t wire_bytes() const;
  };
  // An op of `kind` issued by `src` against `addr`; the caller fills in
  // the payload and completion.
  [[nodiscard]] static Op make_op(Op::Kind kind, int src, Gva addr);
  // Report the op to the attached observer as begun, and as ended just
  // before `done` runs.
  template <typename... Args>
  void observe_op(int node, std::uint64_t key,
                  std::function<void(sim::Time, Args...)>& done);

  [[nodiscard]] net::NicTlb& tlb_mut(int node) {
    return tlbs_.at(static_cast<std::size_t>(node));
  }
  [[nodiscard]] int home_of(Gva block_base) const {
    return block_base.home(fabric_->nodes());
  }

  // Source-side issue: CPU posts the descriptor, the source NIC looks up
  // its TLB and targets the owner or the home.
  void issue(sim::TaskCtx& task, int node, std::uint32_t id);

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
  // Unpark the op and run its completion callback at `t`.
  void complete(sim::Time t, std::uint32_t id);
  // Ack/reply to the source, piggybacking the owner's translation.
  void reply(sim::Time depart, int owner, std::uint32_t id);

  // Migration steps (NIC-level at the home except the dst allocation).
  void mig_request(sim::Time t, Gva block_base, MoveRequest req);
  void mig_alloc_ok(sim::Time t, Gva block_base, sim::Lva dst_lva);
  void mig_commit(sim::Time t, Gva block_base);
  // Send the initiator its completion notice (always a message).
  void notify_initiator(sim::Time depart, int home, MoveRequest req);

  std::vector<net::NicTlb> tlbs_;
  MoveSequencer<std::uint32_t> moves_;  // parks slab ids at the home NIC
  util::Slab<Op> ops_{"agas-net op"};  // in-flight ops by id
};

}  // namespace nvgas::gas
