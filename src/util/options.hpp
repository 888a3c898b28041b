// Tiny CLI option parser for bench/example binaries.
//
// Accepts "--key=value" and "--flag" arguments; everything else is a
// positional. Typed getters with defaults keep call sites one line; a
// typed getter aborts, naming the flag, when the value is empty, not
// entirely a number, negative for an unsigned getter, outside the range
// of the integer type it reads into, or not one of true/false/1/0/yes/no
// for get_bool. Every getter (and has()) records the key it was asked
// for, so reject_unknown() can tell a misspelt flag from a real one.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

namespace nvgas::util {

class Options {
 public:
  Options(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  // Integer getters read into T, 64-bit unless asked otherwise
  // (`get_int<int>("nodes", 8)`); a value T cannot hold is fatal, never
  // narrowed.
  template <typename T = std::int64_t>
  [[nodiscard]] T get_int(const std::string& key, std::type_identity_t<T> def) const {
    const std::string* v = find(key);
    return v == nullptr ? def
                        : static_cast<T>(to_int(key, *v, std::numeric_limits<T>::min(),
                                                std::numeric_limits<T>::max()));
  }
  template <typename T = std::uint64_t>
  [[nodiscard]] T get_uint(const std::string& key, std::type_identity_t<T> def) const {
    const std::string* v = find(key);
    return v == nullptr ? def
                        : static_cast<T>(to_uint(key, *v, std::numeric_limits<T>::max()));
  }

  // Comma-separated list of unsigned integers ("--sizes=8,64,4096").
  template <typename T = std::uint64_t>
  [[nodiscard]] std::vector<T> get_uint_list(
      const std::string& key, std::vector<std::type_identity_t<T>> def) const {
    const std::string* v = find(key);
    if (v == nullptr) return def;
    std::vector<T> out;
    for (const std::string& item : split_list(*v)) {
      out.push_back(static_cast<T>(to_uint(key, item, std::numeric_limits<T>::max())));
    }
    return out;
  }

  [[nodiscard]] const std::vector<std::string>& positionals() const { return positionals_; }
  [[nodiscard]] const std::string& program() const { return program_; }

  // A binary calls this once it has read all its flags: every --flag on
  // the command line that no getter asked for is printed as
  // "unknown flag --X", and the process exits with status 2.
  void reject_unknown() const;

 private:
  // The value of `key`, or null if it was not given; records the read.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  // Parse all of `text` as an integer in [lo, hi], or exit naming `key`.
  static std::int64_t to_int(const std::string& key, const std::string& text,
                             std::int64_t lo, std::int64_t hi);
  static std::uint64_t to_uint(const std::string& key, const std::string& text,
                               std::uint64_t hi);
  // The comma-separated items of a non-empty list.
  static std::vector<std::string> split_list(const std::string& text);

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positionals_;
  mutable std::set<std::string> read_;
};

}  // namespace nvgas::util
