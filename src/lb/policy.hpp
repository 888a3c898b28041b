// Pluggable rebalance policies: given a placed heat snapshot, propose a
// migration plan. Policies are pure decision logic — the Balancer owns
// observation (HeatMap), execution (GasApi::migrate), the throttle and
// the cost gate. All arithmetic is integer and all iteration is in
// deterministic (key / rank) order.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "lb/heat.hpp"
#include "sim/time.hpp"

namespace nvgas::lb {

enum class PolicyKind : std::uint8_t {
  kNone = 0,        // observe only, never migrate
  kGreedy = 1,      // periodic global argmax: busiest donates to idlest
  kHysteresis = 2,  // greedy + imbalance threshold + per-block cooldown
};

[[nodiscard]] constexpr const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNone: return "none";
    case PolicyKind::kGreedy: return "greedy";
    case PolicyKind::kHysteresis: return "hysteresis";
  }
  return "?";
}

// Hysteresis: act only when busiest*100 > idlest*kImbalancePct (plus
// the min_heat absolute floor), and never re-move a block within
// kCooldownEpochs of its last move.
inline constexpr std::uint32_t kImbalancePct = 150;
inline constexpr std::uint32_t kCooldownEpochs = 2;

// Node that runs the epoch decision task and issues the migrations.
inline constexpr int kCoordinator = 0;

// Decision CPU cost charged to the coordinator per epoch.
inline constexpr sim::Time kDecideBaseNs = 400;
inline constexpr sim::Time kDecidePerBlockNs = 25;

// Balancer / policy tuning knobs, set through core::Config.
struct LbConfig {
  PolicyKind policy = PolicyKind::kNone;

  // Epoch cadence: the balancer samples heat and re-plans this often
  // while the application is generating accesses (it goes dormant after
  // a quiet epoch so the event queue can drain).
  sim::Time epoch_ns = 100'000;

  // EWMA decay per epoch: counters are multiplied by 2^-decay_shift.
  std::uint32_t decay_shift = 1;

  // Plan-size / throttle limits.
  std::uint32_t max_moves_per_epoch = 8;
  std::uint32_t max_inflight = 4;

  // Blocks colder than this (decayed units; kAccessUnit per access) are
  // never moved.
  std::uint64_t min_heat = 2 * kAccessUnit;

  // Cost gate: modeled saving per decayed access unit that migration
  // would localize, weighed against directory-update + invalidation +
  // transfer cost (see Balancer::profitable).
  sim::Time benefit_ns_per_access = 600;
};

// One block of a placed snapshot: heat plus authoritative owner.
struct PlacedBlock {
  std::uint64_t key = 0;
  int owner = 0;
  std::uint64_t heat = 0;                  // decayed units
  const std::uint32_t* by_node = nullptr;  // [ranks] per-source units
  // In-flight migration or exponential backoff: contributes load but
  // must not be proposed again this epoch.
  bool frozen = false;
};

struct Snapshot {
  int ranks = 0;
  std::uint64_t epoch = 0;  // balancer epoch index (cooldown bookkeeping)
  std::vector<PlacedBlock> blocks;       // ordered ascending by key
  std::vector<std::uint64_t> node_load;  // [ranks] sum of owned heat
};

struct Move {
  std::uint64_t key = 0;
  int dst = 0;
  std::uint64_t heat = 0;  // the block's heat when planned (cost gate input)
};

class Policy {
 public:
  virtual ~Policy() = default;
  [[nodiscard]] virtual PolicyKind kind() const = 0;
  // Append proposed moves, highest priority first. The balancer may
  // drop entries (cost gate, throttle); only executed moves are
  // reported back through on_moved.
  virtual void plan(const Snapshot& snap, const LbConfig& cfg,
                    std::vector<Move>& out) = 0;
  // A planned move was actually issued (cooldown bookkeeping).
  virtual void on_moved(std::uint64_t key, std::uint64_t epoch) {
    (void)key;
    (void)epoch;
  }
};

[[nodiscard]] std::unique_ptr<Policy> make_policy(PolicyKind kind);

}  // namespace nvgas::lb
