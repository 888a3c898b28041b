// Deterministic open-loop client generator for the kvstore.
//
// Millions of simulated clients are modeled as one aggregate arrival
// process per edge node: a seeded exponential interarrival stream whose
// rate follows a piecewise diurnal profile, optionally multiplied by a
// flash-crowd burst. Arrivals never wait for responses (open loop): each
// request is fired from its own fire-and-forget fiber, and the response
// parcel lands in a reply handler that feeds the per-node SloTracker.
// Key skew is Zipfian (util/zipf.hpp) with configurable exponent; an
// optional hot-set rotation at t_shift moves the popular keys mid-run,
// the churn driver behind the SLO-retention metric.
//
// Everything is derived from ClientConfig::seed and simulated time, so
// the generated stream — and therefore the engine trace hash — is
// identical across runs and processes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/world.hpp"
#include "kvstore/server.hpp"
#include "kvstore/slo.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace nvgas::apps::kv {

struct ClientConfig {
  std::uint64_t keyspace = 1 << 14;
  double zipf_s = 0.99;       // key-popularity skew exponent
  double get_fraction = 0.80; // op mix; del = 1 - get - put
  double put_fraction = 0.17;
  double ttl_fraction = 0.25; // of PUTs that carry a TTL
  std::uint32_t ttl_us = 400;
  std::uint32_t value_size = 32;
  // Aggregate arrival rate per edge node at diurnal multiplier 1.0
  // (ops/sec of simulated time; each op stands for one client request).
  double rate_per_node = 2.0e6;
  sim::Time t_start = 50'000;      // first-arrival time (alloc warmup)
  sim::Time duration = 2'000'000;  // arrival window length
  // Diurnal load profile: multipliers stepped uniformly across the
  // arrival window (a compressed day).
  std::vector<double> diurnal = {0.6, 1.0, 1.4, 1.0};
  // Flash crowd: rate multiplied by flash_mult in [flash_begin, flash_end).
  sim::Time flash_begin = 0;
  sim::Time flash_end = 0;
  double flash_mult = 1.0;
  // Hot-set rotation: from t_shift on (absolute; 0 = never), sampled keys
  // rotate by keyspace/2, moving the entire hot set at once.
  sim::Time t_shift = 0;
  std::uint64_t seed = 0x5eedc11e;
};

class ClientGen {
 public:
  ClientGen(World& world, KvServer& server, ClientConfig cfg,
            sim::Time slo_target_ns);
  ClientGen(const ClientGen&) = delete;
  ClientGen& operator=(const ClientGen&) = delete;

  // Start this rank's arrival process (fire-and-forget; call once per
  // rank, after KvServer::setup has completed on rank 0).
  rt::Fiber drive(rt::Context& ctx);

  // --- post-run (quiesced) aggregation ------------------------------
  [[nodiscard]] SloTracker merged_slo() const;
  [[nodiscard]] std::uint64_t issued() const;
  [[nodiscard]] std::uint64_t completed() const;
  // GET responses whose value bytes were not all identical — the
  // client-visible torn-read detector (values are written as a repeated
  // tag byte).
  [[nodiscard]] std::uint64_t torn() const;
  [[nodiscard]] std::uint64_t code_count(std::uint8_t code) const;

 private:
  struct NodeState {
    std::uint64_t next_token = 1;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t torn = 0;
    std::uint64_t codes[3] = {0, 0, 0};
    SloTracker slo;
    explicit NodeState(sim::Time target) : slo(target) {}
  };

  void issue(rt::Context& c, NodeState& st, util::Rng& rng, sim::Time t_due);
  void on_reply(rt::Context& c, util::Buffer raw);
  [[nodiscard]] double rate_at(sim::Time t) const;

  World* world_;
  KvServer* server_;
  ClientConfig cfg_;
  util::ZipfGenerator zipf_;  // shared, read-only after construction
  rt::ActionId reply_action_ = rt::kInvalidAction;
  std::vector<NodeState> nodes_;
};

}  // namespace nvgas::apps::kv
