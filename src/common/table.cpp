#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace gred {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::ostringstream os;
    os << "|";
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << " " << std::left << std::setw(static_cast<int>(widths[c])) << cell
         << " |";
    }
    return os.str();
  };

  std::ostringstream os;
  std::string sep = "+";
  for (std::size_t w : widths) sep += std::string(w + 2, '-') + "+";

  os << sep << "\n" << render_row(header_) << "\n" << sep << "\n";
  for (const auto& row : rows_) os << render_row(row) << "\n";
  os << sep << "\n";
  return os.str();
}

}  // namespace gred
