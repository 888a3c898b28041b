// One-call kvstore run: build a World for a given manager / lb policy /
// fault plan, serve a full ClientGen arrival stream through a KvServer,
// and report the SLO outcome. Shared by bench_kvstore (the sweep),
// determinism_probe (the trace hash) and the unit tests, so all three
// measure exactly the same workload.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "kvstore/clientgen.hpp"
#include "kvstore/server.hpp"
#include "kvstore/slo.hpp"

namespace nvgas::apps::kv {

struct KvRunConfig {
  gas::GasMode mode = gas::GasMode::kAgasNet;
  int nodes = 8;
  lb::PolicyKind policy = lb::PolicyKind::kNone;
  bool lossy = false;  // arm the lossy wire-fault plan
  KvParams kv;
  ClientConfig client;
  sim::Time slo_target_ns = 150'000;  // served-latency SLO target
};

struct KvRunResult {
  SloReport slo;
  Metrics server;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t torn = 0;
  std::uint64_t no_space = 0;  // kNoSpace responses seen by clients
  std::uint64_t lb_migrations = 0;
  std::uint64_t trace_hash = 0;
  sim::Time sim_ns = 0;
};

// The canonical lossy fault plan for the kvstore sweep: a catch-all
// rule with light drop/dup/delay, enough to exercise retransmission
// under load without stalling the run.
void arm_lossy_plan(Config& cfg);

[[nodiscard]] KvRunResult run_kv(const KvRunConfig& rc);

}  // namespace nvgas::apps::kv
