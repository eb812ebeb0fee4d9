// Small string utilities shared across modules.
#pragma once

#include <string>
#include <vector>

namespace gred {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Joins with a delimiter string.
std::string join(const std::vector<std::string>& parts,
                 const std::string& delim);

/// Trims ASCII whitespace from both ends.
std::string trim(const std::string& s);

}  // namespace gred
