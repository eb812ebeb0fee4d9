#include "workload/generators.hpp"

namespace gred::workload {

std::vector<std::string> identifier_universe(const std::string& prefix,
                                             std::size_t count) {
  std::vector<std::string> ids;
  ids.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    ids.push_back(prefix + "/" + std::to_string(k));
  }
  return ids;
}

}  // namespace gred::workload
