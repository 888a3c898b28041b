#include "lb/balancer.hpp"

#include <algorithm>

#include "gas/invariants.hpp"
#include "util/assert.hpp"

namespace nvgas::lb {

Balancer::Balancer(sim::Fabric& fabric, gas::GasBase& gas, const LbConfig& cfg)
    : fabric_(&fabric),
      gas_(&gas),
      cfg_(cfg),
      // protolint:allow(P4: coordinator-resident heat table, one per world; sparse per-source rows are the ROADMAP item 6 follow-up)
      heat_(fabric.nodes()),
      policy_(make_policy(cfg.policy)) {
  NVGAS_CHECK(cfg_.coordinator >= 0 && cfg_.coordinator < fabric.nodes());
  NVGAS_CHECK(cfg_.max_inflight > 0);
  active_ = gas.supports_migration() && cfg_.policy != PolicyKind::kNone;
  if (active_) gas_->set_access_observer(this);
}

Balancer::~Balancer() {
  if (active_) gas_->set_access_observer(nullptr);
}

void Balancer::on_local_access(int node, std::uint64_t block_key) {
  heat_.on_local_access(node, block_key);
  arm();
}

void Balancer::on_remote_access(int node, std::uint64_t block_key) {
  heat_.on_remote_access(node, block_key);
  arm();
}

void Balancer::on_block_freed(std::uint64_t block_key) {
  heat_.on_block_freed(block_key);
  backoff_.erase(block_key);
}

void Balancer::set_enabled(bool on) {
  if (enabled_ == on) return;
  enabled_ = on;
  if (on && heat_.accesses() > 0) arm();
}

void Balancer::arm() {
  if (armed_ || !enabled_ || !active_) return;
  armed_ = true;
  fabric_->engine().after(cfg_.epoch_ns, [this] { tick(); });
}

void Balancer::tick() {
  if (!enabled_ || !active_) {
    armed_ = false;
    return;
  }
  // The decision runs as a CPU task on the coordinator so its cost is
  // charged there and migrations are issued from a proper task context.
  fabric_->cpu(cfg_.coordinator)
      .submit_at(fabric_->engine().now(),
                 [this](sim::TaskCtx& t) { epoch(t); });
}

void Balancer::epoch(sim::TaskCtx& task) {
  const std::uint64_t epoch_idx = epochs_++;
  ++fabric_->counters().lb_epochs;
  const std::uint64_t seen_before = heat_.accesses();

  heat_.decay(cfg_.decay_shift);
  heat_.snapshot(views_);

  const int ranks = fabric_->nodes();
  snap_.ranks = ranks;
  snap_.epoch = epoch_idx;
  snap_.blocks.clear();
  // protolint:allow(P4: coordinator-only aggregate rebuilt per epoch, one per world)
  snap_.node_load.assign(static_cast<std::size_t>(ranks), 0);
  for (const BlockHeat& v : views_) {
    const int owner = gas_->owner_of(gas::Gva(v.key)).first;
    const auto bit = backoff_.find(v.key);
    const bool frozen =
        inflight_keys_.count(v.key) != 0 ||
        (bit != backoff_.end() && epoch_idx < bit->second.until_epoch);
    snap_.blocks.push_back(PlacedBlock{v.key, owner, v.heat, v.by_node, frozen});
    snap_.node_load[static_cast<std::size_t>(owner)] += v.heat;
  }
  task.charge(cfg_.decide_base_ns +
              cfg_.decide_per_block_ns *
                  static_cast<sim::Time>(snap_.blocks.size()));

  plan_.clear();
  policy_->plan(snap_, cfg_, plan_);
  for (const Move& m : plan_) {
    if (inflight_ >= cfg_.max_inflight) {
      ++fabric_->counters().lb_throttled;
      continue;
    }
    const std::uint32_t block_size =
        gas_->heap().meta_of(gas::Gva(m.key)).block_size;
    if (!profitable(m.heat, block_size)) {
      ++rejected_cost_;
      ++fabric_->counters().lb_rejected_cost;
      continue;
    }
    issue(task, m, epoch_idx);
  }

  // Re-arm while the application is still generating accesses or our
  // own migrations are still draining; otherwise go dormant (the next
  // observed access re-arms).
  if (seen_before != last_accesses_ || inflight_ > 0) {
    fabric_->engine().after(cfg_.epoch_ns, [this] { tick(); });
  } else {
    armed_ = false;
  }
  last_accesses_ = seen_before;
}

void Balancer::issue(sim::TaskCtx& task, const Move& m,
                     std::uint64_t epoch_idx) {
  const gas::Gva block(m.key);
  if (gas_->owner_of(block).first == m.dst) return;  // raced: already there
  ++inflight_;
  peak_inflight_ = std::max(peak_inflight_, inflight_);
  inflight_keys_.insert(m.key);
  ++migrations_;
  ++fabric_->counters().lb_migrations;
  policy_->on_moved(m.key, epoch_idx);
  if (gas::InvariantObserver* obs = gas_->observer()) {
    obs->on_balancer_migrate_issued(m.key);
  }
  gas_->migrate(task, cfg_.coordinator, block, m.dst,
                [this, key = m.key, dst = m.dst](sim::Time) {
                  on_migrate_done(key, dst);
                });
}

void Balancer::on_migrate_done(std::uint64_t key, int dst) {
  NVGAS_CHECK(inflight_ > 0);
  --inflight_;
  inflight_keys_.erase(key);
  if (gas::InvariantObserver* obs = gas_->observer()) {
    obs->on_balancer_migrate_done(key);
  }
  if (!gas_->heap().contains(gas::Gva(key))) return;  // freed while settling
  if (gas_->owner_of(gas::Gva(key)).first != dst) {
    // Bounced: a competing migration moved the block after ours
    // committed. Back off exponentially before retrying this block.
    ++fabric_->counters().lb_bounced;
    Backoff& b = backoff_[key];
    b.fails = std::min<std::uint32_t>(b.fails + 1, 16);
    b.until_epoch =
        epochs_ + (1ull << std::min<std::uint32_t>(b.fails, 6));
  } else {
    backoff_.erase(key);
  }
}

bool Balancer::profitable(std::uint64_t heat_units,
                          std::uint32_t block_size) const {
  const gas::GasCosts& c = gas_->costs();
  const sim::MachineParams& p = fabric_->params();
  // Benefit: expected accesses over the next decay window, each saving
  // the modeled remote-vs-local delta.
  const std::uint64_t benefit =
      heat_units * static_cast<std::uint64_t>(cfg_.benefit_ns_per_access) /
      kAccessUnit;
  // Cost: directory update at the home, invalidation fan-out to every
  // other node, one fence round trip, and pushing the block's bytes.
  const std::uint64_t cost =
      c.dir_update_ns +
      static_cast<std::uint64_t>(fabric_->nodes() - 1) * c.invalidate_ns +
      2 * p.wire_latency_ns + p.wire_time(block_size);
  return benefit > cost;
}

}  // namespace nvgas::lb
