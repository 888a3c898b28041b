#include "gas/gheap.hpp"

namespace nvgas::gas {

GlobalHeap::GlobalHeap(sim::Fabric& fabric) : fabric_(&fabric) {
  // protolint:allow(P4: simulator-host array of the simulated machine's memories, not protocol state)
  stores_.reserve(static_cast<std::size_t>(fabric.nodes()));
  for (int n = 0; n < fabric.nodes(); ++n) {
    stores_.push_back(
        std::make_unique<BlockStore>(fabric.params().mem_bytes_per_node));
  }
}

Gva GlobalHeap::alloc(Dist dist, int creator, std::uint32_t nblocks,
                      std::uint32_t block_size) {
  NVGAS_CHECK(nblocks >= 1 && nblocks <= Gva::kMaxBlocks);
  NVGAS_CHECK(block_size >= 1 && block_size <= Gva::kMaxBlockSize);
  NVGAS_CHECK(creator >= 0 && creator < fabric_->nodes());
  NVGAS_CHECK_MSG(allocs_.size() < Gva::kMaxAllocs, "allocation ids exhausted");

  Alloc& a = allocs_.emplace_back();
  a.meta.id = static_cast<std::uint32_t>(allocs_.size());
  a.meta.dist = dist;
  a.meta.creator = creator;
  a.meta.nblocks = nblocks;
  a.meta.block_size = block_size;

  // The creator reserves backing store on every home rank.
  a.initial.reserve(nblocks);
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const int home = Gva::make(dist, creator, a.meta.id, b, 0).home(fabric_->nodes());
    a.initial.push_back(store(home).allocate(block_size));
  }
  return Gva::make(dist, creator, a.meta.id, 0, 0);
}

const GlobalHeap::Alloc* GlobalHeap::find(std::uint32_t alloc_id) const {
  if (alloc_id == 0 || alloc_id > allocs_.size()) return nullptr;
  const Alloc& a = allocs_[alloc_id - 1];
  return a.initial.empty() ? nullptr : &a;
}

void GlobalHeap::release_meta(std::uint32_t alloc_id) {
  NVGAS_CHECK_MSG(find(alloc_id) != nullptr, "release of unknown allocation");
  // Free the placement array now; the record itself stays, so references
  // into it held elsewhere never dangle.
  std::vector<sim::Lva>().swap(allocs_[alloc_id - 1].initial);
}

const AllocMeta& GlobalHeap::meta(std::uint32_t alloc_id) const {
  const Alloc* a = find(alloc_id);
  NVGAS_CHECK_MSG(a != nullptr, "unknown allocation id");
  return a->meta;
}

bool GlobalHeap::contains(Gva gva) const {
  const Alloc* a = find(gva.alloc_id());
  return a != nullptr && gva.block() < a->meta.nblocks &&
         gva.offset() < a->meta.block_size;
}

sim::Lva GlobalHeap::initial_lva(Gva block_base) const {
  const Alloc* a = find(block_base.alloc_id());
  NVGAS_CHECK_MSG(a != nullptr && block_base.block() < a->meta.nblocks &&
                      block_base.dist() == a->meta.dist &&
                      block_base.creator() == a->meta.creator,
                  "no initial placement for block");
  return a->initial[block_base.block()];
}

void GlobalHeap::check_extent(Gva gva, std::size_t len) const {
  const AllocMeta& m = meta_of(gva);
  // The id picks the record; an address that disagrees with it on the
  // distribution or the creator names no live allocation either.
  NVGAS_CHECK_MSG(gva.dist() == m.dist && gva.creator() == m.creator,
                  "unknown allocation id");
  NVGAS_CHECK_MSG(gva.block() < m.nblocks, "gva outside allocation");
  NVGAS_CHECK_MSG(gva.offset() + len <= m.block_size,
                  "access crosses a block boundary");
}

}  // namespace nvgas::gas
