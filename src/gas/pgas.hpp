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
  void start(sim::TaskCtx& task, std::uint32_t id) override;

 private:
  struct Place {
    int owner;
    sim::Lva lva;
  };
  [[nodiscard]] Place translate(Gva addr) const;
};

}  // namespace nvgas::gas
