// Hardware model of the simulated cluster.
//
// The network follows a LogGP-style decomposition: per-message CPU
// overheads (o), per-message NIC gaps (g), per-byte serialization (G) and
// wire latency (L). The costs are fixed constants shaped after a
// QDR-InfiniBand-era commodity cluster — the class of machine the
// original evaluation ran on. The benchmark conclusions depend only on
// their ordering (CPU overheads ≫ NIC processing ≫ per-byte), not on any
// one value. MachineParams holds what a caller chooses: the machine's
// size and the wire jitter.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace nvgas::sim {

// --- network (LogGP-ish) ---
inline constexpr Time kWireLatencyNs = 900;      // L: one-way latency (flat crossbar)
inline constexpr Time kNicGapNs = 40;            // g: per-message port occupancy (tx and rx)
inline constexpr double kByteTimeNs = 0.233;     // G: ~4 GiB/s link
inline constexpr Time kCpuSendOverheadNs = 120;  // o_send: CPU cost to post a descriptor
inline constexpr Time kCpuRecvOverheadNs = 250;  // o_recv: CPU cost to take a two-sided rx

// --- NIC processing (one-sided path, no CPU involvement) ---
inline constexpr Time kNicDmaNs = 100;           // DMA engine setup per RMA op
inline constexpr Time kNicTlbNs = 60;            // NIC translation-table lookup
inline constexpr Time kNicFwdNs = 80;            // NIC-level forward of a stale-address op
inline constexpr Time kNicAtomicNs = 150;        // NIC-executed fetch-add

// --- local memory system ---
inline constexpr double kMembusByteNs = 0.0625;  // ~16 GiB/s local copy bandwidth

struct MachineParams {
  int nodes = 8;
  int workers_per_node = 2;          // schedulable CPU workers per node
  std::size_t mem_bytes_per_node = 64ull << 20;

  // Always 0 (the engine is single-threaded); kept because external
  // benchmark provenance reads it.
  static constexpr int threads = 0;

  Time wire_jitter_ns = 0;           // uniform [0, jitter) added per message
                                     // (deterministic, seeded; models switch
                                     // arbitration variance for tail studies)
  std::uint64_t jitter_seed = 0x7177e4;

  [[nodiscard]] static constexpr Time wire_time(std::uint64_t bytes) {
    return kNicGapNs + bytes_time(bytes, kByteTimeNs);
  }
  [[nodiscard]] static constexpr Time copy_time(std::uint64_t bytes) {
    return bytes_time(bytes, kMembusByteNs);
  }
};

}  // namespace nvgas::sim
