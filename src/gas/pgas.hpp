// Static PGAS baseline (SHMEM/UPC-style).
//
// Translation is pure arithmetic: a block's owner is forever its home and
// its local address is the initial placement. No directory, no cache, no
// mobility — the lower bound every AGAS design is measured against.
#pragma once

#include "gas/gas_api.hpp"

namespace nvgas::gas {

class Pgas final : public GasBase {
 public:
  using GasBase::GasBase;

  [[nodiscard]] GasMode mode() const override { return GasMode::kPgas; }
  [[nodiscard]] bool supports_migration() const override { return false; }

  void migrate(sim::TaskCtx& task, int node, Gva block, int dst,
               net::OnDone done) override;

  [[nodiscard]] std::pair<int, sim::Lva> owner_of(Gva block) const override;

 protected:
  void do_memput(sim::TaskCtx& task, int node, Gva dst,
                 std::vector<std::byte> data, net::OnDone done,
                 net::OnDone remote_notify) override;
  void do_memget(sim::TaskCtx& task, int node, Gva src, std::size_t len,
                 net::OnData done) override;
  void do_fetch_add(sim::TaskCtx& task, int node, Gva addr,
                    std::uint64_t operand, net::OnU64 done) override;
  void do_resolve(sim::TaskCtx& task, int node, Gva addr, OnOwner done) override;

 private:
  struct Place {
    int owner;
    sim::Lva lva;
  };
  [[nodiscard]] Place translate(Gva addr) const;
};

}  // namespace nvgas::gas
