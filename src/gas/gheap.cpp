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

  std::lock_guard<std::mutex> lock(mu_);
  AllocMeta meta;
  NVGAS_CHECK_MSG(next_alloc_id_ <= Gva::kMaxAllocs,
                  "allocation ids exhausted");
  meta.id = next_alloc_id_++;
  meta.dist = dist;
  meta.creator = creator;
  meta.nblocks = nblocks;
  meta.block_size = block_size;

  const Gva base = Gva::make(dist, creator, meta.id, 0, 0);
  // The creator reserves backing store on every home rank.
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const Gva block = Gva::make(dist, creator, meta.id, b, 0);
    const int home = block.home(fabric_->nodes());
    initial_[block.block_key()] = store(home).allocate(block_size);
  }
  metas_.emplace(meta.id, meta);
  return base;
}

void GlobalHeap::release_meta(std::uint32_t alloc_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metas_.find(alloc_id);
  NVGAS_CHECK_MSG(it != metas_.end(), "release of unknown allocation");
  const AllocMeta meta = it->second;
  for (std::uint32_t b = 0; b < meta.nblocks; ++b) {
    const Gva block = Gva::make(meta.dist, meta.creator, meta.id, b, 0);
    initial_.erase(block.block_key());
  }
  metas_.erase(it);
}

const AllocMeta& GlobalHeap::meta(std::uint32_t alloc_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metas_.find(alloc_id);
  NVGAS_CHECK_MSG(it != metas_.end(), "unknown allocation id");
  // References into an unordered_map survive rehash; erasure only
  // happens in release_meta, whose collective contract forbids
  // concurrent access to the allocation being freed.
  return it->second;
}

bool GlobalHeap::contains(Gva gva) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metas_.find(gva.alloc_id());
  if (it == metas_.end()) return false;
  const AllocMeta& m = it->second;
  return gva.block() < m.nblocks && gva.offset() < m.block_size;
}

sim::Lva GlobalHeap::initial_lva(Gva block_base) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = initial_.find(block_base.block_key());
  NVGAS_CHECK_MSG(it != initial_.end(), "no initial placement for block");
  return it->second;
}

void GlobalHeap::check_extent(Gva gva, std::size_t len) const {
  const AllocMeta& m = meta_of(gva);
  NVGAS_CHECK_MSG(gva.block() < m.nblocks, "gva outside allocation");
  NVGAS_CHECK_MSG(gva.offset() + len <= m.block_size,
                  "access crosses a block boundary");
}

}  // namespace nvgas::gas
