#include "gas/pgas.hpp"

namespace nvgas::gas {

Pgas::Place Pgas::translate(Gva addr) const {
  const Gva base = addr.block_base();
  return Place{base.home(fabric_->nodes()),
               heap_->initial_lva(base) + addr.offset()};
}

void Pgas::do_memput(sim::TaskCtx& task, int node, Gva dst,
                     std::vector<std::byte> data, net::OnDone done,
                     net::OnDone remote_notify) {
  task.charge(kPgasTranslateNs);
  const Place p = translate(dst);
  if (p.owner == node) {
    local_put(task, node, p.lva, data, done);
    if (remote_notify) remote_notify(task.now());
    return;
  }
  task.charge(ep(node).post_cost());
  ep(node).put(task.now(), p.owner, p.lva, std::move(data), std::move(done),
               std::move(remote_notify));
}

void Pgas::do_memget(sim::TaskCtx& task, int node, Gva src, std::size_t len,
                     net::OnData done) {
  task.charge(kPgasTranslateNs);
  const Place p = translate(src);
  if (p.owner == node) {
    local_get(task, node, p.lva, len, done);
    return;
  }
  task.charge(ep(node).post_cost());
  ep(node).get(task.now(), p.owner, p.lva, len, std::move(done));
}

void Pgas::do_fetch_add(sim::TaskCtx& task, int node, Gva addr,
                        std::uint64_t operand, net::OnU64 done) {
  task.charge(kPgasTranslateNs);
  const Place p = translate(addr);
  if (p.owner == node) {
    local_fadd(task, node, p.lva, operand, done);
    return;
  }
  task.charge(ep(node).post_cost());
  ep(node).fetch_add(task.now(), p.owner, p.lva, operand, std::move(done));
}

void Pgas::do_resolve(sim::TaskCtx& task, int /*node*/, Gva addr, OnOwner done) {
  task.charge(kPgasTranslateNs);
  done(task.now(), addr.home(fabric_->nodes()));
}

void Pgas::migrate(sim::TaskCtx&, int, Gva, int, net::OnDone) {
  NVGAS_CHECK_MSG(false, "PGAS does not support migration");
}

std::pair<int, sim::Lva> Pgas::owner_of(Gva block) const {
  const Place p = translate(block.block_base());
  return {p.owner, p.lva};
}

}  // namespace nvgas::gas
