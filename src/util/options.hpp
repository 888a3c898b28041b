// Tiny CLI option parser for bench/example binaries.
//
// Accepts "--key=value" and "--flag" arguments; everything else is a
// positional. Typed getters with defaults keep call sites one line; a
// numeric getter aborts, naming the flag, when the value is empty or not
// entirely a number.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nvgas::util {

class Options {
 public:
  Options(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& def) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t def) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& key, std::uint64_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  // Comma-separated list of unsigned integers ("--sizes=8,64,4096").
  [[nodiscard]] std::vector<std::uint64_t> get_uint_list(
      const std::string& key, std::vector<std::uint64_t> def) const;

  [[nodiscard]] const std::vector<std::string>& positionals() const { return positionals_; }
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positionals_;
};

}  // namespace nvgas::util
