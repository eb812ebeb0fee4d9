#include "obs/export.hpp"

#include <cstdio>
#include <fstream>

namespace gred::obs {

namespace {

/// %.17g round-trips doubles exactly; integral values print bare.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Metric names are library-chosen identifiers ([a-z0-9._]), but
/// escape defensively so a hostile name cannot break the document.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_histogram_json(std::string& out, const Histogram::Snapshot& h) {
  out += "{\"count\": ";
  out += num(h.count);
  out += ", \"sum\": ";
  out += num(h.sum);
  out += ", \"min\": ";
  out += num(h.min);
  out += ", \"max\": ";
  out += num(h.max);
  out += ", \"mean\": ";
  out += num(h.mean());
  out += ", \"bins\": [";
  // Sparse dump: [upper_edge, count] pairs for non-empty bins only.
  bool first = true;
  for (std::size_t i = 0; i < Histogram::kBins; ++i) {
    if (h.bins[i] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += '[';
    out += num(Histogram::Snapshot::bin_upper(i));
    out += ", ";
    out += num(h.bins[i]);
    out += ']';
  }
  out += "]}";
}

void append_metrics_json(std::string& out, const Registry& reg) {
  const Registry::Snapshot snap = reg.snapshot();
  out += "  \"metrics\": {\n    \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += json_escape(snap.counters[i].first);
    out += "\": ";
    out += num(snap.counters[i].second);
  }
  out += "},\n    \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += json_escape(snap.gauges[i].first);
    out += "\": ";
    out += num(snap.gauges[i].second);
  }
  out += "},\n    \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    out += i ? ",\n      " : "\n      ";
    out += '"';
    out += json_escape(snap.histograms[i].first);
    out += "\": ";
    append_histogram_json(out, snap.histograms[i].second);
  }
  out += snap.histograms.empty() ? "}\n  }" : "\n    }\n  }";
}

void append_trace_json(std::string& out, const RouteTraceRing& ring,
                       std::size_t max_samples) {
  std::vector<RouteTraceSample> samples = ring.snapshot();
  if (max_samples < samples.size()) {
    samples.erase(samples.begin(),
                  samples.end() - static_cast<std::ptrdiff_t>(max_samples));
  }
  out += "  \"route_trace\": {\n    \"recorded\": ";
  out += num(ring.recorded());
  out += ",\n    \"dropped\": ";
  out += num(ring.dropped());
  out += ",\n    \"capacity\": ";
  out += num(static_cast<std::uint64_t>(ring.capacity()));
  out += ",\n    \"samples\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const RouteTraceSample& s = samples[i];
    out += i ? ",\n      " : "\n      ";
    out += "{\"seq\": ";
    out += num(s.seq);
    out += ", \"type\": ";
    out += num(static_cast<std::uint64_t>(s.type));
    out += ", \"ingress\": ";
    out += num(static_cast<std::uint64_t>(s.ingress));
    out += ", \"egress\": ";
    out += num(static_cast<std::uint64_t>(s.egress));
    out += ", \"hops\": ";
    out += num(static_cast<std::uint64_t>(s.hops));
    out += ", \"path_cost\": ";
    out += num(s.path_cost);
    out += ", \"found\": ";
    out += s.found ? "true" : "false";
    out += ", \"ok\": ";
    out += s.ok ? "true" : "false";
    out += '}';
  }
  out += samples.empty() ? "]\n  }" : "\n    ]\n  }";
}

void append_events_json(std::string& out, const EventLog& log) {
  const std::vector<DynamicsEvent> events = log.snapshot();
  out += "  \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const DynamicsEvent& e = events[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"seq\": ";
    out += num(e.seq);
    out += ", \"kind\": \"";
    out += event_kind_name(e.kind);
    out += "\", \"ok\": ";
    out += e.ok ? "true" : "false";
    out += ", \"status\": \"";
    out += json_escape(e.status);
    out += "\", \"subject\": ";
    out += num(static_cast<std::uint64_t>(e.subject));
    out += ", \"peer\": ";
    out += num(static_cast<std::uint64_t>(e.peer));
    out += ", \"patched\": ";
    out += num(static_cast<std::uint64_t>(e.patched));
    out += ", \"migrated\": ";
    out += num(static_cast<std::uint64_t>(e.migrated));
    out += ", \"entries_before\": ";
    out += num(static_cast<std::uint64_t>(e.entries_before));
    out += ", \"entries_after\": ";
    out += num(static_cast<std::uint64_t>(e.entries_after));
    out += ", \"duration_ms\": ";
    out += num(e.duration_ms);
    out += '}';
  }
  out += events.empty() ? "]" : "\n  ]";
}

}  // namespace

ExportSources default_sources() {
  ExportSources s;
  s.registry = &registry();
  s.trace = &route_trace();
  s.events = &event_log();
  return s;
}

std::string to_json(const ExportSources& sources,
                    std::size_t max_trace_samples) {
  std::string out = "{\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  if (sources.registry != nullptr) {
    sep();
    append_metrics_json(out, *sources.registry);
  }
  if (sources.trace != nullptr) {
    sep();
    append_trace_json(out, *sources.trace, max_trace_samples);
  }
  if (sources.events != nullptr) {
    sep();
    append_events_json(out, *sources.events);
  }
  out += "\n}\n";
  return out;
}

Status write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    return Status(ErrorCode::kUnavailable, "cannot open " + path);
  }
  f.write(text.data(), static_cast<std::streamsize>(text.size()));
  f.flush();
  if (!f) {
    return Status(ErrorCode::kUnavailable, "write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace gred::obs
