// ASCII table renderer: every figure-reproduction bench prints its data
// series through this so the output reads like the paper's plots.
#pragma once

#include <string>
#include <vector>

namespace gred {

/// Column-aligned ASCII table with a header row.
///
///   Table t({"n switches", "GRED", "Chord"});
///   t.add_row({"20", "1.21", "3.87"});
///   std::cout << t.to_string();
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; it may have fewer cells than the header (padded).
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string fmt(double v, int precision = 3);

  std::size_t rows() const { return rows_.size(); }

  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace gred
