// Per-node registered-heap allocator.
//
// Carves block storage out of the node's registered memory segment using
// power-of-two segregated free lists over a bump pointer. All GAS
// implementations allocate block storage through this, so blocks always
// live inside RDMA-able memory.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "sim/memory.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace nvgas::gas {

class BlockStore {
 public:
  explicit BlockStore(std::size_t segment_bytes)
      : segment_bytes_(segment_bytes) {}

  // Allocate `bytes` (rounded up to a power of two, min 64). try_allocate
  // returns false on exhaustion; allocate aborts instead.
  [[nodiscard]] bool try_allocate(std::size_t bytes, sim::Lva* out);
  [[nodiscard]] sim::Lva allocate(std::size_t bytes) {
    sim::Lva lva = 0;
    NVGAS_CHECK_MSG(try_allocate(bytes, &lva), "registered heap exhausted");
    return lva;
  }

  void release(sim::Lva lva, std::size_t bytes);

  [[nodiscard]] std::size_t bytes_in_use() const {
    return in_use_;
  }
  [[nodiscard]] std::size_t bytes_total() const { return segment_bytes_; }
  [[nodiscard]] std::size_t high_water() const {
    return bump_;
  }

  static constexpr std::size_t kMinBlock = 64;

 private:
  static unsigned size_class(std::size_t bytes) {
    const std::size_t rounded = std::max(bytes, kMinBlock);
    return util::ceil_log2(rounded);
  }

  std::size_t segment_bytes_;
  std::size_t bump_ = 0;
  std::size_t in_use_ = 0;
  std::array<std::vector<sim::Lva>, 64> free_lists_{};
};

}  // namespace nvgas::gas
