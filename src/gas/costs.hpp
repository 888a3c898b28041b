// Software cost model of the address-space managers, and the two
// settings a caller may choose for the software AGAS.
//
// The costs are CPU nanoseconds charged on the node executing the step;
// the ordering (arithmetic < cache hit < cache insert < directory work)
// mirrors measured software AGAS implementations.
#pragma once

#include <cstddef>

#include "sim/time.hpp"

namespace nvgas::gas {

inline constexpr sim::Time kPgasTranslateNs = 5;    // block-cyclic arithmetic
inline constexpr sim::Time kSwCacheHitNs = 25;      // source-side translation cache hit
inline constexpr sim::Time kSwCacheInsertNs = 40;   // fill after a miss
inline constexpr sim::Time kDirLookupNs = 180;      // home directory resolve (CPU)
inline constexpr sim::Time kDirUpdateNs = 220;      // home directory mutation (CPU)
inline constexpr sim::Time kInvalidateNs = 60;      // processing one cache invalidation
inline constexpr sim::Time kAllocBlockNs = 120;     // per-block local heap allocation

struct GasCosts {
  std::size_t sw_cache_capacity = 4096;  // entries per node

  // Test-only protocol fault injection (mcheck self-validation; see
  // docs/MODEL_CHECKING.md). When set, the SW-AGAS home "forgets" the
  // highest-ranked sharer during a migration's INV fan-out: that sharer
  // is neither invalidated nor awaited, so its cached translation
  // survives the move stale. Never enabled outside mcheck tests.
  bool fault_sw_skip_one_sharer_inv = false;
};

}  // namespace nvgas::gas
