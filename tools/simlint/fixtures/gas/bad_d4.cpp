// simlint fixture: this file lives under a gas/ path component, so
// std::function declarations must fire D4 here as under sim/ and net/.
#include <functional>

struct OpTable {
  std::function<void(int)> on_owner;                    // simlint-expect(D4)
  // simlint:allow(D4: public API boundary type, held once per op)
  using OnOwner = std::function<void(int)>;
};
