// Deterministic wire-fault injection.
//
// The simulated fabric is lossless by construction; this layer makes it
// deliberately unreliable — dropped, duplicated, and extra-delayed
// messages plus timed link brownouts — while staying bit-for-bit
// reproducible. Each (src, dst) link owns an independent seeded RNG
// stream (SplitMix64-expanded from plan.seed and the link key) and a
// frame counter, so a fault decision depends only on the link and how
// many frames preceded it there: replaying the same run re-draws the
// same faults, and mcheck schedules stay replayable from their schedule
// string alone.
//
// The injector hooks the single sanctioned message-injection point
// (Nic::send, the same spot the mcheck Explorer owns; see simlint rule
// D6). A World arms it only when Config::faults.active() — an empty
// plan installs nothing, so the reliable build's traces are untouched
// (the inertness gate in tests/net_faults_test.cpp proves it).
//
// Every injected fault is counted (faults_injected_* in sim::Counters)
// so conservation checks can reconcile delivered = sent - drops + dups
// instead of silently losing bytes. See docs/FAULT_INJECTION.md.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/counters.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace nvgas::sim {

class Fabric;

// One probabilistic fault rule. src/dst of -1 match any node; the first
// matching rule in FaultPlan::rules wins, so specific links can be
// listed before a catch-all.
struct FaultRule {
  int src = -1;
  int dst = -1;
  double drop = 0.0;      // P(frame silently dropped)
  double dup = 0.0;       // P(frame delivered twice)
  double delay = 0.0;     // P(frame gets extra wire delay)
  Time delay_ns = 0;      // extra delay drawn uniformly from [1, delay_ns]
};

// A timed link outage: every matching frame departing in [begin, end)
// is dropped. Finite by construction, so retransmission always has a
// clear window to succeed in.
struct Brownout {
  int src = -1;
  int dst = -1;
  Time begin = 0;
  Time end = 0;
};

// Deterministic single-frame drop: the nth frame (0-based, counted per
// link) on every matching link is dropped. mcheck scenarios use these to
// force a retransmission without any probabilistic draw.
struct ForcedDrop {
  int src = -1;
  int dst = -1;
  std::uint64_t nth = 0;
};

struct FaultPlan {
  std::vector<FaultRule> rules;
  std::vector<Brownout> brownouts;
  std::vector<ForcedDrop> forced_drops;
  std::uint64_t seed = 0xfa17fa17;

  // True when the plan can affect any frame at all. World installs a
  // FaultInjector only in that case; an inactive plan leaves the fabric
  // byte-identical to a build without this subsystem.
  [[nodiscard]] bool active() const;
};

// What the injector decided for one frame.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  Time extra_delay = 0;      // added to the primary copy's wire flight
  Time dup_extra_delay = 0;  // added to the duplicate copy's wire flight
};

class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, Fabric& fabric);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Called by Nic::send for every non-loopback frame; `depart` is the
  // tx-port departure time (brownouts key off it). Counts whatever it
  // injects.
  FaultDecision on_injection(int src, int dst, Time depart,
                             std::uint64_t bytes);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  struct LinkState {
    // simlint:allow(D2: seeded fault plan — per-link stream derived from plan.seed)
    util::Rng rng;
    std::uint64_t frames = 0;
  };

  [[nodiscard]] static std::uint64_t link_key(int src, int dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(dst);
  }
  LinkState& link(int src, int dst);
  [[nodiscard]] const FaultRule* rule_for(int src, int dst) const;

  FaultPlan plan_;
  Fabric* fabric_;
  // simlint:allow(D1: keyed access only, never iterated)
  std::unordered_map<std::uint64_t, LinkState> links_;
};

}  // namespace nvgas::sim
