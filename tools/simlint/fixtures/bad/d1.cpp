// simlint fixture: every D1 shape must fire (see simlint-expect markers).
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

struct BadUnordered {
  std::unordered_map<std::uint64_t, int> table;  // simlint-expect(D1)
  std::unordered_set<std::uint64_t> members;     // simlint-expect(D1)

  int sum() const {
    int total = 0;
    for (const auto& [k, v] : table) {  // simlint-expect(D1)
      total += v;
    }
    for (auto it = members.begin(); it != members.end(); ++it) {  // simlint-expect(D1)
      total += static_cast<int>(*it);
    }
    return total;
  }
};

// Multi-line declaration: the flag lands on the line holding the type token.
struct MultiLine {
  std::unordered_map<std::uint64_t,  // simlint-expect(D1)
                     std::unordered_map<std::uint64_t, int>>  // simlint-expect(D1)
      nested;
};

// A digit separator is not a char literal: an odd count of them must not
// swallow the lines that follow, so the flag keeps its line.
constexpr std::uint64_t kWindowNs = 4'000;
struct AfterDigitSeparator {
  std::unordered_set<int> seen;  // simlint-expect(D1)
};
