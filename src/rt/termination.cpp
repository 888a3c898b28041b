#include "rt/termination.hpp"

namespace nvgas::rt {

QuiescenceDetector::QuiescenceDetector(Runtime& rt, sim::Time poll_ns)
    : rt_(rt),
      poll_ns_(poll_ns),
      // protolint:allow(P4: detector-resident per-rank sent counters, one detector per world; ROADMAP item 6 aggregates them up the tree)
      sent_(static_cast<std::size_t>(rt.nodes()), 0),
      // protolint:allow(P4: detector-resident per-rank processed counters; ROADMAP item 6 aggregates them up the tree)
      processed_(static_cast<std::size_t>(rt.nodes()), 0) {
  // protolint:allow(P4: one quiescence event per rank on the world-level detector, resolved at detection)
  done_.reserve(static_cast<std::size_t>(rt.nodes()));
  for (int n = 0; n < rt.nodes(); ++n) {
    done_.push_back(std::make_unique<Event>());
  }

  verdict_ = register_action<std::uint8_t>(
      rt_.actions(), "nvgas.quiesce.verdict",
      [this](Context& c, int, std::uint8_t) {
        done_[static_cast<std::size_t>(c.rank())]->set(c.now());
      });

  report_ = register_action<std::uint64_t, std::uint64_t, std::uint64_t>(
      rt_.actions(), "nvgas.quiesce.report",
      [this](Context& c, int src, std::uint64_t round, std::uint64_t s,
             std::uint64_t p) { root_accept(c, src, round, s, p); });
}

Event& QuiescenceDetector::wait(Context& ctx) {
  arm_reporter(ctx.rank());
  return *done_[static_cast<std::size_t>(ctx.rank())];
}

void QuiescenceDetector::arm_reporter(int rank) {
  // Periodic reporter: a small CPU task that ships this rank's counters
  // to the root, then re-arms itself until the verdict lands.
  rt_.fabric().cpu(rank).submit_at(
      rt_.fabric().engine().now() + poll_ns_, [this, rank](sim::TaskCtx& task) {
        if (finished_ ||
            done_[static_cast<std::size_t>(rank)]->triggered()) {
          return;
        }
        CurrentTaskScope scope(rt_, task);
        Context& c = rt_.ctx(rank);
        // Round id is decided by the root on receipt; the rank just
        // reports its current counters.
        c.send(0, report_,
               pack_args(std::uint64_t{0}, sent_[static_cast<std::size_t>(rank)],
                         processed_[static_cast<std::size_t>(rank)]));
        arm_reporter(rank);
      });
}

void QuiescenceDetector::root_accept(Context& c, int rank,
                                     std::uint64_t /*round*/, std::uint64_t s,
                                     std::uint64_t p) {
  if (finished_) return;
  if (latest_.empty()) {
    // protolint:allow(P4: coordinator-only four-counter wave ledger; ROADMAP item 6 keeps it on the single coordinator)
    latest_.resize(static_cast<std::size_t>(rt_.nodes()));
  }
  Latest& l = latest_[static_cast<std::size_t>(rank)];
  l.sent = s;  // counters are monotone, so newest wins
  l.processed = p;
  l.fresh = true;

  for (const Latest& e : latest_) {
    if (!e.fresh) return;  // snapshot not complete yet
  }

  // Snapshot complete: quiescent iff (a) globally balanced and (b)
  // identical per rank to the previous complete snapshot. Any message
  // processed between a rank's two reports changes that rank's counters;
  // any message still in flight across both snapshots is counted as sent
  // but not processed, breaking (a).
  bool stable = have_prev_;
  std::uint64_t total_sent = 0;
  std::uint64_t total_processed = 0;
  for (std::size_t i = 0; i < latest_.size(); ++i) {
    total_sent += latest_[i].sent;
    total_processed += latest_[i].processed;
    if (have_prev_ && (latest_[i].sent != prev_snapshot_[i].sent ||
                       latest_[i].processed != prev_snapshot_[i].processed)) {
      stable = false;
    }
  }
  stable = stable && total_sent == total_processed;

  prev_snapshot_ = latest_;
  have_prev_ = true;
  for (Latest& e : latest_) e.fresh = false;
  ++round_;

  if (stable) {
    finished_ = true;
    for (int dst = 0; dst < rt_.nodes(); ++dst) {
      c.send(dst, verdict_, pack_args(std::uint8_t{1}));
    }
  }
}

}  // namespace nvgas::rt
