#include "rt/collectives.hpp"

namespace nvgas::rt {

std::vector<int> Collectives::tree_children(int rank, int ranks) {
  std::vector<int> out;
  // Children of r are r | 2^k for 2^k below r's lowest set bit (any k for
  // the root), while in range.
  const int limit = rank == 0 ? ranks : (rank & -rank);
  for (int bit = 1; bit < limit; bit <<= 1) {
    const int child = rank | bit;
    if (child < ranks && child != rank) out.push_back(child);
  }
  return out;
}

Collectives::Collectives(Runtime& rt, CollAlgo algo) : rt_(rt), algo_(algo) {
  // protolint:allow(P4: world-level array of per-rank collective slots; tree algorithms already bound fan-in, root aggregation is ROADMAP item 6)
  nodes_.resize(static_cast<std::size_t>(rt.nodes()));
  auto& reg = rt_.actions();
  const int ranks = rt_.nodes();

  // --- flat algorithm -------------------------------------------------------
  barrier_release_ = register_action<std::uint64_t>(
      reg, "nvgas.coll.barrier_release",
      [this](Context& c, int, std::uint64_t gen) {
        barrier_event(c.rank(), gen).set(c.now());
      });

  barrier_arrive_ = register_action<std::uint64_t>(
      reg, "nvgas.coll.barrier_arrive",
      [this, ranks](Context& c, int, std::uint64_t gen) {
        auto& prog = barrier_progress_[gen];
        if (++prog.arrived == ranks) {
          barrier_progress_.erase(gen);
          for (int dst = 0; dst < ranks; ++dst) {
            c.send(dst, barrier_release_, pack_args(gen));
          }
        }
      });

  reduce_release_ = register_action<std::uint64_t, double>(
      reg, "nvgas.coll.reduce_release",
      [this](Context& c, int, std::uint64_t gen, double total) {
        reduce_future(c.rank(), gen).set(c.now(), total);
      });

  reduce_arrive_ = register_action<std::uint64_t, double>(
      reg, "nvgas.coll.reduce_arrive",
      [this, ranks](Context& c, int, std::uint64_t gen, double value) {
        auto& prog = reduce_progress_[gen];
        prog.acc += value;
        if (++prog.arrived == ranks) {
          const double total = prog.acc;
          reduce_progress_.erase(gen);
          for (int dst = 0; dst < ranks; ++dst) {
            c.send(dst, reduce_release_, pack_args(gen, total));
          }
        }
      });

  // --- binomial tree ---------------------------------------------------------
  tree_barrier_up_ = register_action<std::uint64_t>(
      reg, "nvgas.coll.tree_barrier_up",
      [this](Context& c, int, std::uint64_t gen) {
        tree_barrier_contribute(c, gen);
      });

  tree_barrier_down_ = register_action<std::uint64_t>(
      reg, "nvgas.coll.tree_barrier_down",
      [this](Context& c, int, std::uint64_t gen) {
        tree_release_barrier(c, gen);
      });

  tree_reduce_up_ = register_action<std::uint64_t, double>(
      reg, "nvgas.coll.tree_reduce_up",
      [this](Context& c, int, std::uint64_t gen, double value) {
        tree_reduce_contribute(c, gen, value);
      });

  tree_reduce_down_ = register_action<std::uint64_t, double>(
      reg, "nvgas.coll.tree_reduce_down",
      [this](Context& c, int, std::uint64_t gen, double total) {
        tree_release_reduce(c, gen, total);
      });
}

// --- LCO slots --------------------------------------------------------------

Event& Collectives::barrier_event(int node, std::uint64_t gen) {
  auto& st = nodes_.at(static_cast<std::size_t>(node));
  auto& slot = st.barrier_events[gen];
  if (!slot) slot = std::make_unique<Event>();
  return *slot;
}

Future<double>& Collectives::reduce_future(int node, std::uint64_t gen) {
  auto& st = nodes_.at(static_cast<std::size_t>(node));
  auto& slot = st.reduce_futures[gen];
  if (!slot) slot = std::make_unique<Future<double>>();
  return *slot;
}

// --- tree machinery ---------------------------------------------------------

void Collectives::tree_barrier_contribute(Context& c, std::uint64_t gen) {
  auto& st = nodes_.at(static_cast<std::size_t>(c.rank()));
  auto& tg = st.tree_barrier[gen];
  if (tg.remaining < 0) {
    tg.remaining =
        static_cast<int>(tree_children(c.rank(), rt_.nodes()).size()) + 1;
  }
  if (--tg.remaining > 0) return;
  st.tree_barrier.erase(gen);
  if (c.rank() == 0) {
    tree_release_barrier(c, gen);
  } else {
    c.send(tree_parent(c.rank()), tree_barrier_up_, pack_args(gen));
  }
}

void Collectives::tree_release_barrier(Context& c, std::uint64_t gen) {
  for (int child : tree_children(c.rank(), rt_.nodes())) {
    c.send(child, tree_barrier_down_, pack_args(gen));
  }
  barrier_event(c.rank(), gen).set(c.now());
}

void Collectives::tree_reduce_contribute(Context& c, std::uint64_t gen,
                                         double value) {
  auto& st = nodes_.at(static_cast<std::size_t>(c.rank()));
  auto& tg = st.tree_reduce[gen];
  if (tg.remaining < 0) {
    tg.remaining =
        static_cast<int>(tree_children(c.rank(), rt_.nodes()).size()) + 1;
  }
  tg.acc += value;
  if (--tg.remaining > 0) return;
  const double partial = tg.acc;
  st.tree_reduce.erase(gen);
  if (c.rank() == 0) {
    tree_release_reduce(c, gen, partial);
  } else {
    c.send(tree_parent(c.rank()), tree_reduce_up_, pack_args(gen, partial));
  }
}

void Collectives::tree_release_reduce(Context& c, std::uint64_t gen,
                                      double total) {
  for (int child : tree_children(c.rank(), rt_.nodes())) {
    c.send(child, tree_reduce_down_, pack_args(gen, total));
  }
  reduce_future(c.rank(), gen).set(c.now(), total);
}

// --- public API -------------------------------------------------------------

Event& Collectives::barrier(Context& ctx) {
  auto& st = nodes_.at(static_cast<std::size_t>(ctx.rank()));
  const std::uint64_t gen = st.next_barrier_gen++;
  Event& ev = barrier_event(ctx.rank(), gen);
  if (algo_ == CollAlgo::kFlat) {
    ctx.send(0, barrier_arrive_, pack_args(gen));
  } else {
    tree_barrier_contribute(ctx, gen);
  }
  return ev;
}

Future<double>& Collectives::allreduce_sum(Context& ctx, double value) {
  auto& st = nodes_.at(static_cast<std::size_t>(ctx.rank()));
  const std::uint64_t gen = st.next_reduce_gen++;
  Future<double>& fut = reduce_future(ctx.rank(), gen);
  if (algo_ == CollAlgo::kFlat) {
    ctx.send(0, reduce_arrive_, pack_args(gen, value));
  } else {
    tree_reduce_contribute(ctx, gen, value);
  }
  return fut;
}

}  // namespace nvgas::rt
