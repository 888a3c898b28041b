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
    if (end > pos) {
      const auto mode = gas::parse_mode(std::string_view(s).substr(pos, end - pos));
      NVGAS_CHECK_MSG(mode.has_value(),
                      "unknown mode in --sweep-modes (pgas|agas-sw|agas-net)");
      out.push_back(*mode);
    }
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

}  // namespace nvgas::bench
