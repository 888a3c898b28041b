// Epoch-driven migration balancer: the executive of the lb subsystem.
//
// Closes the loop observe -> decide -> migrate: a HeatMap (attached as
// the manager's AccessObserver) accumulates per-block heat; every epoch
// the balancer decays the counters, snapshots placement, asks its Policy
// for a plan, and executes the plan through GasApi::migrate behind
//
//   * a throttle — at most max_inflight balancer migrations in flight,
//     at most one per block, exponential per-block backoff after a
//     bounced move (completion found the block somewhere other than the
//     requested destination, i.e. a racing migration won);
//   * a cost gate — a move is issued only when the modeled benefit over
//     the decay window (heat x benefit_ns_per_access) exceeds the
//     modeled move cost (directory update + invalidation fan-out +
//     fence round trip + block transfer, from gas/costs.hpp and the
//     machine parameters).
//
// Scheduling is demand-driven: the first observed access arms an epoch
// timer on the sim Engine; an epoch with no new accesses and nothing in
// flight does not re-arm, so a drained application lets the event queue
// drain too (World::run terminates). Everything runs on the configured
// coordinator node's CPU and charges decision costs there.
//
// On a manager with supports_migration() == false (PGAS) or with the
// `none` policy the balancer attaches nothing and schedules nothing:
// the run is byte-identical to one without a balancer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "gas/gas_api.hpp"
#include "lb/heat.hpp"
#include "lb/policy.hpp"
#include "sim/fabric.hpp"

namespace nvgas::lb {

class Balancer final : public gas::AccessObserver {
 public:
  Balancer(sim::Fabric& fabric, gas::GasBase& gas, const LbConfig& cfg);
  ~Balancer() override;
  Balancer(const Balancer&) = delete;
  Balancer& operator=(const Balancer&) = delete;

  // Pause / resume the epoch driver (benches gate churn windows with
  // this). Disabling lets any armed timer lapse harmlessly; enabling
  // arms an epoch immediately.
  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const { return enabled_; }
  // False when the manager cannot migrate or the policy is `none`: the
  // balancer then observes nothing and perturbs nothing.
  [[nodiscard]] bool active() const { return active_; }

  // Cost gate, exposed for tests: is moving a block with `heat_units`
  // decayed units and `block_size` bytes modeled as profitable?
  [[nodiscard]] bool profitable(std::uint64_t heat_units,
                                std::uint32_t block_size) const;

  [[nodiscard]] const LbConfig& config() const { return cfg_; }
  [[nodiscard]] const HeatMap& heat() const { return heat_; }
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  [[nodiscard]] std::uint64_t rejected_cost() const { return rejected_cost_; }
  [[nodiscard]] std::uint32_t inflight() const { return inflight_; }
  // High-water mark of concurrently in-flight balancer migrations
  // (tests assert it never exceeds cfg.max_inflight).
  [[nodiscard]] std::uint32_t peak_inflight() const { return peak_inflight_; }

  // --- gas::AccessObserver (forwarded into the HeatMap) --------------------
  void on_access(int node, std::uint64_t block_key) override;
  void on_block_freed(std::uint64_t block_key) override;

 private:
  struct Backoff {
    std::uint32_t fails = 0;
    std::uint64_t until_epoch = 0;
  };

  void arm();
  void tick();
  void epoch(sim::TaskCtx& task);
  void issue(sim::TaskCtx& task, const Move& move, std::uint64_t epoch_idx);
  void on_migrate_done(std::uint64_t key, int dst);

  sim::Fabric* fabric_;
  gas::GasBase* gas_;
  LbConfig cfg_;
  HeatMap heat_;
  std::unique_ptr<Policy> policy_;
  bool active_ = false;
  bool enabled_ = true;
  bool armed_ = false;

  std::uint64_t epochs_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t rejected_cost_ = 0;
  std::uint64_t last_accesses_ = 0;
  std::uint32_t inflight_ = 0;
  std::uint32_t peak_inflight_ = 0;
  std::set<std::uint64_t> inflight_keys_;
  std::map<std::uint64_t, Backoff> backoff_;

  // Reused per-epoch buffers (steady state allocates nothing).
  std::vector<BlockHeat> views_;
  Snapshot snap_;
  std::vector<Move> plan_;
};

}  // namespace nvgas::lb
