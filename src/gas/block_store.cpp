#include "gas/block_store.hpp"

namespace nvgas::gas {

bool BlockStore::try_allocate(std::size_t bytes, sim::Lva* out) {
  NVGAS_CHECK(bytes > 0);
  std::lock_guard<std::mutex> lock(mu_);
  const unsigned cls = size_class(bytes);
  auto& list = free_lists_[cls];
  if (!list.empty()) {
    *out = list.back();
    list.pop_back();
    in_use_ += (1ULL << cls);
    return true;
  }
  const std::size_t size = 1ULL << cls;
  if (bump_ + size > segment_bytes_) return false;
  *out = bump_;
  bump_ += size;
  in_use_ += size;
  return true;
}

void BlockStore::release(sim::Lva lva, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const unsigned cls = size_class(bytes);
  const std::size_t size = 1ULL << cls;
  NVGAS_CHECK_MSG(in_use_ >= size, "release without matching allocate");
  in_use_ -= size;
  free_lists_[cls].push_back(lva);
}

}  // namespace nvgas::gas
