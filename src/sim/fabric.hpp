// The simulated cluster: engine + per-node {CPU, NIC, memory}.
//
// This is the substitution substrate for the multi-node InfiniBand
// machine the original evaluation used (see DESIGN.md §3).
#pragma once

#include <memory>
#include <vector>

#include "sim/counters.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"
#include "sim/nic.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace nvgas::sim {

class Explorer;       // sim/explorer.hpp — mcheck schedule-exploration hook
class FaultInjector;  // sim/faults.hpp — deterministic wire-fault hook

class Fabric {
 public:
  explicit Fabric(const MachineParams& params);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // mcheck schedule exploration: when set, every Nic::send routes its
  // arrival time through the Explorer (which may delay it) and every
  // delivery is folded into the Explorer's order hash. Null in normal
  // runs; the Explorer is owned by the mcheck harness, not the Fabric.
  void set_explorer(Explorer* explorer) { explorer_ = explorer; }
  [[nodiscard]] Explorer* explorer() const { return explorer_; }

  // Wire-fault injection: when set, every non-loopback Nic::send asks
  // the injector whether to drop, duplicate, or extra-delay the frame.
  // Null in normal runs (the World installs one only when
  // Config::faults.active()), so the reliable path stays byte-identical.
  void set_faults(FaultInjector* faults) { faults_ = faults; }
  [[nodiscard]] FaultInjector* faults() const { return faults_; }

  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const MachineParams& params() const { return params_; }
  [[nodiscard]] int nodes() const { return params_.nodes; }

  // The machine-wide counter block, shared by every node.
  [[nodiscard]] Counters& counters() { return counters_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }

  [[nodiscard]] Trace& trace() { return trace_; }

  [[nodiscard]] Cpu& cpu(int node) { return *nodes_.at(static_cast<std::size_t>(node)).cpu; }
  [[nodiscard]] Nic& nic(int node) { return *nodes_.at(static_cast<std::size_t>(node)).nic; }
  [[nodiscard]] Memory& mem(int node) { return *nodes_.at(static_cast<std::size_t>(node)).mem; }

  // One-way wire latency between two nodes, per the configured topology,
  // plus deterministic seeded jitter if configured. Loopback (src == dst)
  // skips the wire but still pays NIC port costs, like a real NIC
  // loopback path.
  [[nodiscard]] Time latency(int src, int dst) {
    if (src == dst) return 0;
    Time l = topology_.latency(src, dst, params_.wire_latency_ns,
                               params_.per_hop_latency_ns);
    if (params_.wire_jitter_ns > 0) {
      l += jitter_rng_.below(params_.wire_jitter_ns);
    }
    return l;
  }

  [[nodiscard]] const Topology& topology() const { return topology_; }

 private:
  struct Node {
    std::unique_ptr<Cpu> cpu;
    std::unique_ptr<Nic> nic;
    std::unique_ptr<Memory> mem;
  };

  MachineParams params_;
  Explorer* explorer_ = nullptr;
  FaultInjector* faults_ = nullptr;
  Topology topology_;
  Engine engine_;
  Counters counters_;
  Trace trace_;
  util::Rng jitter_rng_;
  std::vector<Node> nodes_;
};

}  // namespace nvgas::sim
