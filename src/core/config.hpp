// Top-level configuration for an nvgas World.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "gas/agas_net.hpp"
#include "gas/costs.hpp"
#include "gas/gas_api.hpp"
#include "lb/policy.hpp"
#include "net/config.hpp"
#include "rt/collectives.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "util/options.hpp"

namespace nvgas {

struct Config {
  sim::MachineParams machine;      // machine size, wire jitter
  net::NetConfig net;              // middleware knobs
  rt::CollAlgo coll_algo = rt::CollAlgo::kFlat;  // collective algorithm
  gas::GasCosts gas_costs;         // software-AGAS cache size (+ mcheck fault)
  gas::AgasNetConfig agas_net;     // NIC TLB capacity
  lb::LbConfig lb;                 // adaptive migration subsystem (src/lb)
  sim::FaultPlan faults;           // wire-fault injection; inert when empty
  gas::GasMode gas_mode = gas::GasMode::kAgasNet;
  std::uint64_t seed = 0x5eed0000;  // workload RNG seed (determinism)

  [[nodiscard]] static Config with_nodes(int nodes,
                                         gas::GasMode mode = gas::GasMode::kAgasNet) {
    Config cfg;
    cfg.machine.nodes = nodes;
    cfg.gas_mode = mode;
    return cfg;
  }
};

// The `--mode=pgas|agas-sw|agas-net` option of the example binaries
// (agas-net when absent). Any other value is a usage error: it names the
// flag and exits with status 2.
[[nodiscard]] inline gas::GasMode mode_option(const util::Options& opt) {
  const std::string name = opt.get("mode", "agas-net");
  const auto mode = gas::parse_mode(name);
  if (!mode) {
    std::fprintf(stderr, "unknown --mode=%s (pgas|agas-sw|agas-net)\n",
                 name.c_str());
    std::exit(2);
  }
  return *mode;
}

}  // namespace nvgas
