// Workload generators: reproducible data identifiers for tests, benches,
// and examples.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace gred::workload {

/// Deterministic identifier universe: "<prefix>/<k>".
std::vector<std::string> identifier_universe(const std::string& prefix,
                                             std::size_t count);

}  // namespace gred::workload
