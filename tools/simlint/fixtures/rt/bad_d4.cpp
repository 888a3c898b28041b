// simlint fixture: this file lives under an rt/ path component, so
// std::function declarations must fire D4 here as under sim/, net/ and
// gas/.
#include <functional>

struct LcoCallbacks {
  std::vector<std::function<void(long)>> on_fire;        // simlint-expect(D4)
  // simlint:allow(D4: public API boundary type, moved once per spawn)
  using SpawnFn = std::function<int(int)>;
};
