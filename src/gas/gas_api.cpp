#include "gas/gas_api.hpp"

#include "gas/invariants.hpp"
#include "util/format.hpp"

namespace nvgas::gas {

net::OnDone GasBase::instrument_signal(net::OnDone remote_notify) const {
  // Null callbacks stay null: wrapping one would make the endpoint treat
  // the put as carrying a remote notification, changing simulated
  // behavior. Observation must be passive.
  if (observer_ == nullptr || !remote_notify) return remote_notify;
  const std::uint64_t token = observer_->expect_signal();
  return [obs = observer_, token,
          inner = std::move(remote_notify)](sim::Time t) {
    obs->on_signal(token, t);
    if (inner) inner(t);
  };
}

Gva GasBase::alloc(sim::TaskCtx& task, int node, Dist dist,
                   std::uint32_t nblocks, std::uint32_t block_size) {
  // Cost model for the allocation handshake: one collective round trip
  // plus the per-block heap work amortized across ranks. The metadata
  // itself is installed atomically (the simulator is the single source of
  // truth, standing in for the allocation broadcast).
  const std::uint64_t blocks_here =
      std::max<std::uint64_t>(1, nblocks / static_cast<std::uint32_t>(ranks()));
  task.charge(2 * sim::kWireLatencyNs + 2 * sim::kCpuSendOverheadNs +
              blocks_here * kAllocBlockNs);
  return heap_->alloc(dist, node, nblocks, block_size);
}

void GasBase::memput_notify(sim::TaskCtx& task, int node, Gva dst,
                            std::vector<std::byte> data, net::OnDone done,
                            net::OnDone remote_notify) {
  heap_->check_extent(dst, data.size());
  ++fabric_->counters().gas_memputs;
  note_access(node, dst);
  const std::uint32_t id = ops_.park(node, dst, std::move(done));
  ops_[id].data = std::move(data);
  ops_[id].on_remote = instrument_signal(std::move(remote_notify));
  start(task, id);
}

void GasBase::memget(sim::TaskCtx& task, int node, Gva src, std::size_t len,
                     OnData done) {
  heap_->check_extent(src, len);
  ++fabric_->counters().gas_memgets;
  note_access(node, src);
  const std::uint32_t id = ops_.park(node, src, std::move(done));
  ops_[id].len = static_cast<std::uint32_t>(len);
  start(task, id);
}

void GasBase::fetch_add(sim::TaskCtx& task, int node, Gva addr,
                        std::uint64_t operand, OnU64 done) {
  heap_->check_extent(addr, sizeof(std::uint64_t));
  ++fabric_->counters().gas_atomics;
  note_access(node, addr);
  const std::uint32_t id = ops_.park(node, addr, std::move(done));
  ops_[id].value = operand;
  start(task, id);
}

void GasBase::resolve(sim::TaskCtx& task, int node, Gva addr, OnOwner done) {
  heap_->check_extent(addr, 0);
  note_access(node, addr);
  start(task, ops_.park(node, addr, std::move(done)));
}

void GasBase::finish(sim::Time t, std::uint32_t id) {
  // Each case takes out what its completion needs and frees the id before
  // running it: the completion may issue ops, which may grow the slab.
  OpRecord& op = ops_[id];
  switch (op.kind()) {
    case OpRecord::Kind::kPut: {
      const net::OnDone done = std::move(std::get<net::OnDone>(op.done));
      const net::OnDone on_remote = std::move(op.on_remote);
      ops_.release(id);
      if (done) done(t);
      if (on_remote) on_remote(t);
      break;
    }
    case OpRecord::Kind::kGet: {
      const OnData done = std::move(std::get<OnData>(op.done));
      std::vector<std::byte> data = std::move(op.data);
      ops_.release(id);
      if (done) done(t, std::move(data));
      break;
    }
    case OpRecord::Kind::kFadd: {
      const OnU64 done = std::move(std::get<OnU64>(op.done));
      const std::uint64_t old = op.value;
      ops_.release(id);
      if (done) done(t, old);
      break;
    }
    case OpRecord::Kind::kResolve: {
      const OnOwner done = std::move(std::get<OnOwner>(op.done));
      const int owner = op.entry.owner;
      ops_.release(id);
      if (done) done(t, owner);
      break;
    }
  }
}

void GasBase::finish_here(sim::TaskCtx& task, std::uint32_t id, sim::Lva lva) {
  OpRecord& op = ops_[id];
  sim::Memory& mem = fabric_->mem(op.node);
  switch (op.kind()) {
    case OpRecord::Kind::kPut:
      task.charge(fabric_->params().copy_time(op.data.size()));
      mem.write(lva, op.data);
      break;
    case OpRecord::Kind::kGet:
      task.charge(fabric_->params().copy_time(op.len));
      op.data = mem.read_vec(lva, op.len);
      break;
    case OpRecord::Kind::kFadd:
      task.charge(sim::kNicAtomicNs);
      op.value = mem.fetch_add_u64(lva, op.value);
      break;
    case OpRecord::Kind::kResolve:
      NVGAS_UNREACHABLE();
  }
  finish(task.now(), id);
}

void GasBase::post_rma(sim::TaskCtx& task, std::uint32_t id, int owner,
                       sim::Lva lva) {
  OpRecord& op = ops_[id];
  net::Endpoint& e = ep(op.node);
  task.charge(e.post_cost());
  switch (op.kind()) {
    case OpRecord::Kind::kPut:
      e.put(task.now(), owner, lva, std::move(op.data),
            [this, id](sim::Time t) { rma_done(t, id); }, std::move(op.on_remote));
      break;
    case OpRecord::Kind::kGet:
      e.get(task.now(), owner, lva, op.len, id);
      break;
    case OpRecord::Kind::kFadd:
      e.fetch_add(task.now(), owner, lva, op.value, id);
      break;
    case OpRecord::Kind::kResolve:
      NVGAS_UNREACHABLE();
  }
}

void GasBase::get_done(sim::Time t, std::uint32_t id, std::vector<std::byte> data) {
  ops_[id].data = std::move(data);
  rma_done(t, id);
}

void GasBase::fetch_add_done(sim::Time t, std::uint32_t id, std::uint64_t old) {
  ops_[id].value = old;
  rma_done(t, id);
}

std::string GasBase::audit_quiescent() const {
  const OpRecord* op = ops_.first();
  if (op == nullptr) return {};
  static constexpr const char* kKinds[] = {"put", "get", "fetch_add", "resolve"};
  std::string err = util::format(
      "%zu op(s) never completed; the first is a %s on block %llx from node %d",
      ops_.size(), kKinds[static_cast<int>(op->kind())],
      static_cast<unsigned long long>(op->addr.block_key()), op->node);
  if (op->hops > 0) err += util::format(" after %d hop(s)", op->hops);
  return err;
}

std::pair<int, sim::Lva> GasBase::drop_block_state(Gva block_base) {
  return {heap_->home_of(block_base), heap_->initial_lva(block_base)};
}

void GasBase::free_alloc(sim::TaskCtx& task, int /*node*/, Gva base) {
  // No copy: the heap never moves a record, and release_meta comes last.
  const AllocMeta& meta = heap_->meta_of(base);
  // Cost model mirrors alloc: a collective round trip plus per-block
  // local heap work amortized across ranks.
  const std::uint64_t blocks_here = std::max<std::uint64_t>(
      1, meta.nblocks / static_cast<std::uint32_t>(ranks()));
  task.charge(2 * sim::kWireLatencyNs + 2 * sim::kCpuSendOverheadNs +
              blocks_here * kAllocBlockNs);
  // Collective-free teardown releases every block at its CURRENT owner
  // (the caller guarantees nothing is in flight).
  for (std::uint32_t b = 0; b < meta.nblocks; ++b) {
    const Gva block = Gva::make(meta.dist, meta.creator, meta.id, b, 0);
    const auto [owner, lva] = drop_block_state(block);
    heap_->store(owner).release(lva, meta.block_size);
    if (observer_ != nullptr) observer_->on_free(block.block_key());
    if (access_observer_ != nullptr) {
      access_observer_->on_block_freed(block.block_key());
    }
  }
  heap_->release_meta(meta.id);
}

void GasBase::memcpy_gva(sim::TaskCtx& task, int node, Gva dst, Gva src,
                         std::size_t len, net::OnDone done) {
  heap_->check_extent(src, len);
  heap_->check_extent(dst, len);
  memget(task, node, src, len,
         [this, node, dst, done = std::move(done)](
             sim::Time t, std::vector<std::byte> data) mutable {
           fabric_->cpu(node).submit_at(
               t, [this, node, dst, data = std::move(data),
                   done = std::move(done)](sim::TaskCtx& t2) mutable {
                 memput(t2, node, dst, std::move(data), std::move(done));
               });
         });
}

}  // namespace nvgas::gas
