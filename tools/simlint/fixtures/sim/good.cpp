// simlint fixture: known-good file under a sim/ path — every rule must
// stay quiet. Exercises justified suppressions and the legitimate
// constructs that the heuristics must not confuse for violations.
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

// A suppressed std::function on a hot path (frozen-oracle idiom).
struct Oracle {
  std::function<void()> cb;  // simlint:allow(D4: frozen reference oracle)
};

struct GoodState {
  // Lookup-only unordered map with a justified annotation.
  std::unordered_map<std::uint64_t, int> index;  // simlint:allow(D1: lookup-only, never iterated)
  // Deterministically ordered map: iteration is fine, no annotation needed.
  std::map<std::uint64_t, int> ordered;
  std::vector<int> items;

  int walk() {
    int total = 0;
    for (auto& [k, v] : ordered) total += v;  // ordered: fine
    for (int v : items) total += v;           // vector: fine
    // find/erase-by-key on unordered state is order-independent: fine.
    auto it = index.find(7);
    if (it != index.end()) index.erase(it);
    return total;
  }
};

// A suppression comment on its own line covers the following line.
struct Annotated {
  // simlint:allow(D1: generation counters, keyed access only)
  std::unordered_map<std::uint64_t, std::uint64_t> gens;
};

struct FakeEngine {
  template <typename F>
  void at(unsigned long t, F fn);
};

void good_captures(FakeEngine& engine, GoodState& st) {
  // By-value captures: fine.
  engine.at(10, [p = &st] { p->walk(); });
  // Suppressed by-reference capture of an engine-outliving object.
  engine.at(20, [&st] { st.walk(); });  // simlint:allow(D5: st outlives the engine)
  // rand/time tokens inside strings and comments must not fire D2:
  const char* s = "call rand() and time(NULL) at random_device o'clock";
  (void)s;
  // Member functions *named* like clock sources must not fire D2 either.
  struct Wire { std::uint64_t wire_time(std::uint64_t) { return 0; } } w;
  (void)w.wire_time(0);
}
