// protolint fixture (not compiled): P4 violations.
// Containers sized by the node count: O(P) state per node, the exact
// growth pattern that blocks 1024-node scale-out (ROADMAP item 6).

namespace fx4 {

struct Windows {
  explicit Windows(const Fabric& fabric)
      : peer_tx_(static_cast<std::size_t>(fabric.nodes())) {}  // protolint-expect(P4)

  void rebuild(const World& world, int ranks_) {
    window_.resize(world.nodes());  // protolint-expect(P4)
    load_.assign(static_cast<std::size_t>(ranks_), 0);  // protolint-expect(P4)
    scratch_.reserve(num_nodes);  // protolint-expect(P4)
  }

  std::vector<int> peer_tx_;
  std::vector<int> window_;
  std::vector<int> load_;
  std::vector<int> scratch_;
};

}  // namespace fx4
