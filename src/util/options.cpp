#include "util/options.hpp"

#include <cstdlib>

#include "util/assert.hpp"
#include "util/format.hpp"

namespace nvgas::util {

namespace {

// Parse all of `text` with a strto* function; an empty value or trailing
// garbage is a fatal error naming the flag, not a silent zero.
template <typename T, typename Parse>
T parse_number(const std::string& key, const std::string& text, Parse parse) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const T v = parse(begin, &end);
  if (text.empty() || end != begin + text.size()) {
    const std::string msg =
        format("--%s=%s is not a number", key.c_str(), text.c_str());
    panic(__FILE__, __LINE__, msg.c_str());
  }
  return v;
}

std::uint64_t to_uint(const std::string& key, const std::string& text) {
  return parse_number<std::uint64_t>(
      key, text, [](const char* b, char** e) { return std::strtoull(b, e, 0); });
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_[arg.substr(2)] = "true";
      } else {
        flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positionals_.push_back(std::move(arg));
    }
  }
}

bool Options::has(const std::string& key) const { return flags_.count(key) != 0; }

std::string Options::get(const std::string& key, const std::string& def) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? def : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t def) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return def;
  return parse_number<std::int64_t>(
      key, it->second,
      [](const char* b, char** e) { return std::strtoll(b, e, 0); });
}

std::uint64_t Options::get_uint(const std::string& key, std::uint64_t def) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return def;
  return to_uint(key, it->second);
}

double Options::get_double(const std::string& key, double def) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return def;
  return parse_number<double>(key, it->second, [](const char* b, char** e) {
    return std::strtod(b, e);
  });
}

bool Options::get_bool(const std::string& key, bool def) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::uint64_t> Options::get_uint_list(
    const std::string& key, std::vector<std::uint64_t> def) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return def;
  std::vector<std::uint64_t> out;
  const std::string& s = it->second;
  std::size_t pos = 0;
  while (pos < s.size()) {
    auto comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(to_uint(key, s.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  NVGAS_CHECK_MSG(!out.empty(), "empty list option");
  return out;
}

}  // namespace nvgas::util
