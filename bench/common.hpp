// Shared helpers for the experiment harness binaries.
//
// Every binary regenerates one table/figure of the reconstructed
// evaluation (see DESIGN.md §6): it sweeps its parameters, runs one
// simulated World per configuration, and prints the rows/series the
// corresponding table or figure would show.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/nvgas.hpp"
#include "util/options.hpp"

namespace nvgas::bench {

inline const char* mode_name(GasMode mode) { return gas::to_string(mode); }

inline GasMode parse_mode(const std::string& s) {
  if (s == "pgas") return GasMode::kPgas;
  if (s == "agas-sw") return GasMode::kAgasSw;
  if (s == "agas-net") return GasMode::kAgasNet;
  NVGAS_CHECK_MSG(false, "unknown --mode (pgas|agas-sw|agas-net)");
  return GasMode::kPgas;
}

inline std::vector<GasMode> all_modes() {
  return {GasMode::kPgas, GasMode::kAgasSw, GasMode::kAgasNet};
}

// Parse a `pgas,agas-net` or `all` mode list.
inline std::vector<GasMode> parse_mode_list(const std::string& s) {
  if (s == "all") return all_modes();
  std::vector<GasMode> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > pos) out.push_back(parse_mode(s.substr(pos, end - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  NVGAS_CHECK_MSG(!out.empty(), "empty --sweep-modes list");
  return out;
}

inline void print_header(const char* experiment, const char* what) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", experiment, what);
  std::printf("================================================================\n");
}

// Run a single-rank driver fiber to completion and return the World's
// final simulated time.
template <typename Fn>
sim::Time run_driver(World& world, Fn&& fn) {
  world.spawn(0, std::forward<Fn>(fn));
  world.run();
  return world.now();
}

}  // namespace nvgas::bench
