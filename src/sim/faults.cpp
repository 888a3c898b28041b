#include "sim/faults.hpp"

#include "sim/fabric.hpp"

namespace nvgas::sim {

bool FaultPlan::active() const {
  for (const FaultRule& r : rules) {
    if (r.drop > 0.0 || r.dup > 0.0 || (r.delay > 0.0 && r.delay_ns > 0)) {
      return true;
    }
  }
  for (const Brownout& b : brownouts) {
    if (b.end > b.begin) return true;
  }
  return !forced_drops.empty();
}

FaultInjector::FaultInjector(const FaultPlan& plan, Fabric& fabric)
    : plan_(plan), fabric_(&fabric) {}

FaultInjector::LinkState& FaultInjector::link(int src, int dst) {
  const std::uint64_t key = link_key(src, dst);
  auto it = links_.find(key);
  if (it == links_.end()) {
    // Per-link stream: decisions on one link are independent of traffic
    // on every other link, so adding a flow elsewhere cannot perturb the
    // fault sequence here (and mcheck's schedule perturbations replay).
    it = links_.try_emplace(key).first;
    it->second.rng.reseed(util::SplitMix64(plan_.seed ^ key).next());
  }
  return it->second;
}

const FaultRule* FaultInjector::rule_for(int src, int dst) const {
  for (const FaultRule& r : plan_.rules) {
    if ((r.src == -1 || r.src == src) && (r.dst == -1 || r.dst == dst)) {
      return &r;
    }
  }
  return nullptr;
}

FaultDecision FaultInjector::on_injection(int src, int dst, Time depart,
                                          std::uint64_t bytes) {
  FaultDecision d;
  Counters& counters = fabric_->counters();
  LinkState& ls = link(src, dst);
  const std::uint64_t frame = ls.frames++;

  // Deterministic drops first: they consume no RNG draw, so a forced
  // drop or brownout never shifts the probabilistic stream behind it.
  for (const ForcedDrop& f : plan_.forced_drops) {
    if ((f.src == -1 || f.src == src) && (f.dst == -1 || f.dst == dst) &&
        f.nth == frame) {
      d.drop = true;
    }
  }
  for (const Brownout& b : plan_.brownouts) {
    if ((b.src == -1 || b.src == src) && (b.dst == -1 || b.dst == dst) &&
        depart >= b.begin && depart < b.end) {
      d.drop = true;
    }
  }
  if (d.drop) {
    ++counters.faults_injected_drops;
    counters.faults_dropped_bytes += bytes;
    return d;
  }

  const FaultRule* r = rule_for(src, dst);
  if (r == nullptr) return d;

  // Fixed gate-draw order per frame (drop, dup, delay): each enabled
  // category consumes exactly one draw whether or not it fires, so the
  // stream position after a frame's gates depends only on the rule.
  const bool drop = r->drop > 0.0 && ls.rng.chance(r->drop);
  const bool dup = r->dup > 0.0 && ls.rng.chance(r->dup);
  const bool delay = r->delay > 0.0 && r->delay_ns > 0 && ls.rng.chance(r->delay);
  if (drop) {
    ++counters.faults_injected_drops;
    counters.faults_dropped_bytes += bytes;
    d.drop = true;
    return d;
  }
  if (dup) {
    ++counters.faults_injected_dups;
    counters.faults_dup_bytes += bytes;
    d.duplicate = true;
  }
  if (delay) {
    ++counters.faults_injected_delays;
    d.extra_delay = 1 + ls.rng.below(r->delay_ns);
  }
  if (d.duplicate && r->delay_ns > 0) {
    // The copy takes its own path through the network; give it an
    // independent extra flight so the two copies can reorder.
    d.dup_extra_delay = 1 + ls.rng.below(r->delay_ns);
  }
  return d;
}

}  // namespace nvgas::sim
