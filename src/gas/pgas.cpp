#include "gas/pgas.hpp"

namespace nvgas::gas {

Pgas::Place Pgas::translate(Gva addr) const {
  const Gva base = addr.block_base();
  return Place{base.home(fabric_->nodes()),
               heap_->initial_lva(base) + addr.offset()};
}

void Pgas::start(sim::TaskCtx& task, std::uint32_t id) {
  task.charge(kPgasTranslateNs);
  OpRecord& op = ops_[id];
  const int node = op.node;
  const Place p = translate(op.addr);
  if (op.kind() == OpRecord::Kind::kResolve) {
    op.entry.owner = p.owner;
    finish(task.now(), id);
    return;
  }
  if (p.owner == node) {
    finish_here(task, id, p.lva);
    return;
  }
  post_rma(task, id, p.owner, p.lva);
}

void Pgas::migrate(sim::TaskCtx&, int, Gva, int, net::OnDone) {
  NVGAS_CHECK_MSG(false, "PGAS does not support migration");
}

std::pair<int, sim::Lva> Pgas::owner_of(Gva block) const {
  const Place p = translate(block.block_base());
  return {p.owner, p.lva};
}

}  // namespace nvgas::gas
