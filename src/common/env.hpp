// Validated parsing of the parallelism knobs (GRED_THREADS,
// GRED_SHARDS). A silently misparsed value used to degrade to a
// confusing default (e.g. GRED_THREADS=8x configuring one thread);
// these helpers reject garbage loudly and fall back to the hardware
// instead.
#pragma once

#include <cstddef>

namespace gred {

/// Upper bound any parallelism knob may request. Values above this are
/// treated as misconfiguration (a stray "1e9" or unit suffix), not as a
/// real ask — no machine this code targets has a four-digit core count.
inline constexpr std::size_t kMaxParallelism = 1024;

/// Reads the environment variable `var` as a parallelism degree.
/// Returns the parsed value when it is a plain positive integer in
/// [1, kMaxParallelism]. Returns 0 — "use the fallback" — when the
/// variable is unset; when it is set but non-numeric, has trailing
/// junk, is zero, or exceeds kMaxParallelism, logs one GRED_WARN line
/// naming the variable and the rejected value, then also returns 0.
std::size_t env_parallelism(const char* var);

/// env_parallelism(var), falling back to
/// std::thread::hardware_concurrency() (minimum 1) when it returns 0.
std::size_t env_parallelism_or_hardware(const char* var);

}  // namespace gred
