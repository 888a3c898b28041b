// ASCII table writer used by the benchmark harness to print paper-style
// tables/series with aligned columns.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace nvgas::util {

class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  Table& columns(std::vector<std::string> names);

  // Row builder: call cell() once per column, then end_row().
  Table& cell(std::string value);
  Table& cell(double value, int precision = 2);
  Table& cell(std::uint64_t value);
  Table& cell(std::int64_t value);
  Table& cell(int value) { return cell(static_cast<std::int64_t>(value)); }
  Table& end_row();

  void print(std::ostream& os) const;
  [[nodiscard]] std::string str() const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> pending_;
};

}  // namespace nvgas::util
