#include "util/options.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/assert.hpp"
#include "util/format.hpp"

namespace nvgas::util {

namespace {

// A malformed flag value is a fatal error naming the flag, not a silent
// default: "--KEY=TEXT is not WHAT".
[[noreturn]] void reject(const std::string& key, const std::string& text,
                         const char* what) {
  const std::string msg =
      format("--%s=%s is not %s", key.c_str(), text.c_str(), what);
  panic(__FILE__, __LINE__, msg.c_str());
}

// Parse all of `text` with a strto* function; an empty value or trailing
// garbage is fatal.
template <typename T, typename Parse>
T parse_number(const std::string& key, const std::string& text, Parse parse) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const T v = parse(begin, &end);
  if (text.empty() || end != begin + text.size()) reject(key, text, "a number");
  return v;
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

const std::string* Options::find(const std::string& key) const {
  read_.insert(key);
  const auto it = flags_.find(key);
  return it == flags_.end() ? nullptr : &it->second;
}

bool Options::has(const std::string& key) const { return find(key) != nullptr; }

std::string Options::get(const std::string& key, const std::string& def) const {
  const std::string* v = find(key);
  return v == nullptr ? def : *v;
}

std::int64_t Options::to_int(const std::string& key, const std::string& text,
                             std::int64_t lo, std::int64_t hi) {
  errno = 0;
  const auto v = parse_number<std::int64_t>(
      key, text, [](const char* b, char** e) { return std::strtoll(b, e, 0); });
  if (errno == ERANGE || v < lo || v > hi) {
    reject(key, text,
           format("in [%lld, %lld]", static_cast<long long>(lo),
                  static_cast<long long>(hi))
               .c_str());
  }
  return v;
}

// strtoull accepts a minus sign and negates the result ("-1" parses to
// 2^64-1), so a sign is rejected before parsing.
std::uint64_t Options::to_uint(const std::string& key, const std::string& text,
                               std::uint64_t hi) {
  if (text.find('-') != std::string::npos) {
    reject(key, text, "an unsigned number");
  }
  errno = 0;
  const auto v = parse_number<std::uint64_t>(
      key, text, [](const char* b, char** e) { return std::strtoull(b, e, 0); });
  if (errno == ERANGE || v > hi) {
    reject(key, text,
           format("in [0, %llu]", static_cast<unsigned long long>(hi)).c_str());
  }
  return v;
}

double Options::get_double(const std::string& key, double def) const {
  const std::string* v = find(key);
  if (v == nullptr) return def;
  return parse_number<double>(key, *v, [](const char* b, char** e) {
    return std::strtod(b, e);
  });
}

bool Options::get_bool(const std::string& key, bool def) const {
  const std::string* v = find(key);
  if (v == nullptr) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  reject(key, *v, "a boolean (true/false/1/0/yes/no)");
}

std::vector<std::string> Options::split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    out.push_back(text.substr(pos, comma - pos));
    pos = comma + 1;
  }
  NVGAS_CHECK_MSG(!out.empty(), "empty list option");
  return out;
}

void Options::reject_unknown() const {
  bool unknown = false;
  for (const auto& [key, value] : flags_) {
    if (read_.count(key) == 0) {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      unknown = true;
    }
  }
  if (unknown) std::exit(2);
}

}  // namespace nvgas::util
