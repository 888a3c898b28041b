#include "lb/policy.hpp"

#include <algorithm>

namespace nvgas::lb {
namespace {

// Ranks ordered by load descending (ties: lowest rank), recomputed from
// the working copy of the loads each time a move is applied.
std::vector<int> by_load_desc(const std::vector<std::uint64_t>& loads) {
  std::vector<int> order(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&loads](int a, int b) {
    return loads[static_cast<std::size_t>(a)] > loads[static_cast<std::size_t>(b)];
  });
  return order;
}

int argmin_load(const std::vector<std::uint64_t>& loads) {
  int best = 0;
  for (int n = 1; n < static_cast<int>(loads.size()); ++n) {
    if (loads[static_cast<std::size_t>(n)] < loads[static_cast<std::size_t>(best)]) {
      best = n;
    }
  }
  return best;
}

// Movable-block candidate lists per owner, hottest first (ties: lowest
// key), as indices into snap.blocks.
std::vector<std::vector<std::size_t>> candidates_by_owner(
    const Snapshot& snap, const LbConfig& cfg,
    const std::map<std::uint64_t, std::uint64_t>* last_move) {
  std::vector<std::vector<std::size_t>> cand(
      static_cast<std::size_t>(snap.ranks));
  for (std::size_t i = 0; i < snap.blocks.size(); ++i) {
    const PlacedBlock& b = snap.blocks[i];
    if (b.frozen || b.heat < cfg.min_heat) continue;
    if (last_move != nullptr) {
      const auto it = last_move->find(b.key);
      if (it != last_move->end() &&
          snap.epoch < it->second + kCooldownEpochs) {
        continue;  // per-block cooldown: recently moved, leave it alone
      }
    }
    cand[static_cast<std::size_t>(b.owner)].push_back(i);
  }
  for (auto& list : cand) {
    std::stable_sort(list.begin(), list.end(),
                     [&snap](std::size_t a, std::size_t b) {
                       if (snap.blocks[a].heat != snap.blocks[b].heat) {
                         return snap.blocks[a].heat > snap.blocks[b].heat;
                       }
                       return snap.blocks[a].key < snap.blocks[b].key;
                     });
  }
  return cand;
}

// Destination for `b` leaving `donor`: the heaviest accessor that can
// absorb the block without ending up above the donor (data-centric
// placement that cannot invert the imbalance), else the idlest node.
int pick_dst(const PlacedBlock& b, const std::vector<std::uint64_t>& loads,
             int donor) {
  int best = -1;
  std::uint32_t best_units = 0;
  for (int n = 0; n < static_cast<int>(loads.size()); ++n) {
    if (n == donor) continue;
    if (loads[static_cast<std::size_t>(n)] + b.heat >
        loads[static_cast<std::size_t>(donor)] - b.heat) {
      continue;
    }
    const std::uint32_t units = b.by_node[static_cast<std::size_t>(n)];
    if (best == -1 || units > best_units) {
      best = n;
      best_units = units;
    }
  }
  if (best != -1 && best_units > 0) return best;
  return argmin_load(loads);
}

// Shared busiest-donates-to-idlest planner. Greedy runs it with no
// trigger threshold and a full-gap block limit (it may bounce a block
// back and forth chasing noise); hysteresis adds the imbalance trigger,
// a half-gap block limit (a 50/50 split can never oscillate: moving the
// whole gap is forbidden) and the per-block cooldown applied above.
void plan_transfer(const Snapshot& snap, const LbConfig& cfg, bool hysteresis,
                   const std::map<std::uint64_t, std::uint64_t>* last_move,
                   std::vector<Move>& out) {
  if (snap.ranks < 2) return;
  std::vector<std::uint64_t> loads = snap.node_load;
  const auto cand = candidates_by_owner(snap, cfg, last_move);
  std::vector<bool> used(snap.blocks.size(), false);

  for (std::uint32_t moves = 0; moves < cfg.max_moves_per_epoch;) {
    const int idlest = argmin_load(loads);
    const std::uint64_t lo = loads[static_cast<std::size_t>(idlest)];
    int donor = -1;
    std::size_t pick = snap.blocks.size();
    for (const int dc : by_load_desc(loads)) {
      if (dc == idlest) break;
      const std::uint64_t hi = loads[static_cast<std::size_t>(dc)];
      const std::uint64_t gap = hi - lo;
      const bool triggered =
          hysteresis ? hi * 100 > lo * kImbalancePct + cfg.min_heat * 100
                     : gap > cfg.min_heat;
      if (!triggered) break;  // loads are ordered: nobody below triggers
      const std::uint64_t limit = hysteresis ? gap / 2 : gap;
      for (const std::size_t i : cand[static_cast<std::size_t>(dc)]) {
        if (used[i] || snap.blocks[i].heat > limit) continue;
        donor = dc;
        pick = i;
        break;
      }
      if (donor != -1) break;
    }
    if (donor == -1) break;
    const PlacedBlock& b = snap.blocks[pick];
    const int dst = pick_dst(b, loads, donor);
    if (dst == donor) break;
    used[pick] = true;
    out.push_back(Move{b.key, dst, b.heat});
    loads[static_cast<std::size_t>(donor)] -= b.heat;
    loads[static_cast<std::size_t>(dst)] += b.heat;
    ++moves;
  }
}

class NonePolicy final : public Policy {
 public:
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::kNone; }
  void plan(const Snapshot&, const LbConfig&, std::vector<Move>&) override {}
};

class GreedyPolicy final : public Policy {
 public:
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::kGreedy; }
  void plan(const Snapshot& snap, const LbConfig& cfg,
            std::vector<Move>& out) override {
    plan_transfer(snap, cfg, /*hysteresis=*/false, nullptr, out);
  }
};

class HysteresisPolicy final : public Policy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kHysteresis;
  }
  void plan(const Snapshot& snap, const LbConfig& cfg,
            std::vector<Move>& out) override {
    plan_transfer(snap, cfg, /*hysteresis=*/true, &last_move_, out);
  }
  void on_moved(std::uint64_t key, std::uint64_t epoch) override {
    last_move_[key] = epoch;
  }

 private:
  std::map<std::uint64_t, std::uint64_t> last_move_;  // key -> epoch
};

}  // namespace

std::unique_ptr<Policy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNone: return std::make_unique<NonePolicy>();
    case PolicyKind::kGreedy: return std::make_unique<GreedyPolicy>();
    case PolicyKind::kHysteresis: return std::make_unique<HysteresisPolicy>();
  }
  return std::make_unique<NonePolicy>();
}

}  // namespace nvgas::lb
