#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"

namespace nvgas::util {

Table& Table::columns(std::vector<std::string> names) {
  NVGAS_CHECK(header_.empty());
  header_ = std::move(names);
  return *this;
}

Table& Table::cell(std::string value) {
  pending_.push_back(std::move(value));
  return *this;
}

Table& Table::cell(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return cell(std::string(buf));
}

Table& Table::cell(std::uint64_t value) {
  return cell(std::to_string(value));
}

Table& Table::cell(std::int64_t value) {
  return cell(std::to_string(value));
}

Table& Table::end_row() {
  NVGAS_CHECK_MSG(pending_.size() == header_.size(),
                  "row has wrong number of cells");
  rows_.push_back(std::move(pending_));
  pending_.clear();
  return *this;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto hline = [&] {
    os << '+';
    for (auto w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto print_row = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << row[c] << std::string(widths[c] - row[c].size(), ' ') << " |";
    }
    os << '\n';
  };

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  hline();
  print_row(header_);
  hline();
  for (const auto& row : rows_) print_row(row);
  hline();
}

std::string Table::str() const {
  std::ostringstream oss;
  print(oss);
  return oss.str();
}

}  // namespace nvgas::util
