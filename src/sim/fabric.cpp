#include "sim/fabric.hpp"

namespace nvgas::sim {

Fabric::Fabric(const MachineParams& params)
    : params_(params),
      jitter_rng_(params.jitter_seed) {
  NVGAS_CHECK(params_.nodes >= 1);
  // protolint:allow(P4: simulator-host array, the simulated machine's nodes themselves)
  nodes_.reserve(static_cast<std::size_t>(params_.nodes));
  for (int n = 0; n < params_.nodes; ++n) {
    Node node;
    node.cpu = std::make_unique<Cpu>(
        engine_, n, params_.workers_per_node, counters_, &trace_);
    node.nic = std::make_unique<Nic>(*this, n);
    node.mem = std::make_unique<Memory>(params_.mem_bytes_per_node);
    nodes_.push_back(std::move(node));
  }
}

}  // namespace nvgas::sim
