// Serializes the observability state — metrics registry, route-trace
// ring, dynamics event log — as JSON (the BENCH_*.json house style:
// flat keys, machine-diffable). The schema is documented in README.md
// ("Observability output") and DESIGN.md §10.
#pragma once

#include <string>

#include "common/error.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gred::obs {

/// Everything export covers, bundled so callers can export a subset
/// or a test-local instance.
struct ExportSources {
  const Registry* registry = nullptr;
  const RouteTraceRing* trace = nullptr;
  const EventLog* events = nullptr;
};

/// The process-wide registry/ring/log.
ExportSources default_sources();

/// JSON document: {"metrics": {...}, "route_trace": {...},
/// "events": [...]}. Sections whose source pointer is null are
/// omitted. `max_trace_samples` caps the embedded sample array
/// (newest kept); 0 embeds none (summary only).
std::string to_json(const ExportSources& sources,
                    std::size_t max_trace_samples = 64);

/// Writes `text` to `path` (kUnavailable on I/O failure).
Status write_text_file(const std::string& path, const std::string& text);

}  // namespace gred::obs
