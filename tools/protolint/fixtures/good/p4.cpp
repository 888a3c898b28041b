// protolint fixture (not compiled): P4 clean patterns.
// O(P) sites carry a sparse/pooled justification; the sparse map of
// active peers is the shape ROADMAP item 6 asks for and is not flagged.

namespace gx4 {

struct Windows {
  explicit Windows(const Fabric& fabric)
      // protolint:allow(P4: fixture justification, windows pooled over active peers under ROADMAP item 6)
      : dense_(static_cast<std::size_t>(fabric.nodes())) {}

  void rebuild(const World& world) {
    active_.resize(world.nodes());  // protolint:allow(P4: fixture justification, rebuilt per epoch on the coordinator only)
    by_peer_.clear();  // O(active peers): the shape item 6 wants
  }

  std::vector<int> dense_;
  std::vector<int> active_;
  std::map<int, int> by_peer_;
};

}  // namespace gx4
