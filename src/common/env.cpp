#include "common/env.hpp"

#include <cctype>
#include <cstdlib>
#include <thread>

#include "common/log.hpp"

namespace gred {

std::size_t env_parallelism(const char* var) {
  const char* env = std::getenv(var);
  if (env == nullptr) return 0;

  // strtoul accepts leading whitespace, signs, and hex prefixes; a
  // parallelism knob should be a plain decimal integer, so pre-reject
  // anything that is not digits-only (this also catches empty values
  // and "-1", which strtoul would silently wrap to a huge count).
  bool digits_only = *env != '\0';
  for (const char* p = env; *p != '\0'; ++p) {
    if (std::isdigit(static_cast<unsigned char>(*p)) == 0) {
      digits_only = false;
      break;
    }
  }
  if (digits_only) {
    char* tail = nullptr;
    const unsigned long v = std::strtoul(env, &tail, 10);
    if (tail != env && *tail == '\0' && v >= 1 && v <= kMaxParallelism) {
      return static_cast<std::size_t>(v);
    }
  }
  GRED_WARN << var << "=\"" << env
            << "\" is not a plain integer in [1, " << kMaxParallelism
            << "]; falling back to hardware concurrency";
  return 0;
}

std::size_t env_parallelism_or_hardware(const char* var) {
  const std::size_t v = env_parallelism(var);
  if (v != 0) return v;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace gred
