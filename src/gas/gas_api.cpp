#include "gas/gas_api.hpp"

#include "gas/invariants.hpp"

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
  do_memput(task, node, dst, std::move(data), std::move(done),
            instrument_signal(std::move(remote_notify)));
}

void GasBase::memget(sim::TaskCtx& task, int node, Gva src, std::size_t len,
                     net::OnData done) {
  heap_->check_extent(src, len);
  ++fabric_->counters().gas_memgets;
  note_access(node, src);
  do_memget(task, node, src, len, std::move(done));
}

void GasBase::fetch_add(sim::TaskCtx& task, int node, Gva addr,
                        std::uint64_t operand, net::OnU64 done) {
  heap_->check_extent(addr, sizeof(std::uint64_t));
  ++fabric_->counters().gas_atomics;
  note_access(node, addr);
  do_fetch_add(task, node, addr, operand, std::move(done));
}

void GasBase::resolve(sim::TaskCtx& task, int node, Gva addr, OnOwner done) {
  note_access(node, addr);
  do_resolve(task, node, addr, std::move(done));
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

void GasBase::local_put(sim::TaskCtx& task, int node, sim::Lva lva,
                        std::span<const std::byte> data,
                        const net::OnDone& done) {
  task.charge(fabric_->params().copy_time(data.size()));
  fabric_->mem(node).write(lva, data);
  if (done) done(task.now());
}

void GasBase::local_get(sim::TaskCtx& task, int node, sim::Lva lva,
                        std::size_t len, const net::OnData& done) {
  task.charge(fabric_->params().copy_time(len));
  if (done) done(task.now(), fabric_->mem(node).read_vec(lva, len));
}

void GasBase::local_fadd(sim::TaskCtx& task, int node, sim::Lva lva,
                         std::uint64_t operand, const net::OnU64& done) {
  task.charge(sim::kNicAtomicNs);
  const auto old = fabric_->mem(node).fetch_add_u64(lva, operand);
  if (done) done(task.now(), old);
}

}  // namespace nvgas::gas
