#include "core/delay_experiment.hpp"

#include <algorithm>
#include <cstdint>

#include "common/thread_pool.hpp"

namespace gred::core {
namespace {

/// Requests per shard for both generation and routing. Fixed, so the
/// shard layout — and each shard's RNG stream — depends only on the
/// request count, never on the thread count.
constexpr std::size_t kShardSize = 64;

/// Phase-1 result slot of one request.
struct RoutedRequest {
  enum class Outcome : std::uint8_t { kOk, kNotFound, kError };
  Outcome outcome = Outcome::kError;
  double req_ms = 0.0;
  double resp_ms = 0.0;
  topology::ServerId responder = topology::kNoServer;
  Error error;
  bool cached = false;
};

}  // namespace

Result<DelayExperimentResult> RetrievalDelayExperiment::run(
    const std::vector<RetrievalRequest>& requests) {
  DelayExperimentResult out;
  out.requests = requests.size();

  const auto& apsp_hops = system_->controller().apsp();

  // --- Phase 1: route every request (parallel, per-slot results). ---
  // Retrievals are independent and mutate nothing but a relaxed server
  // counter, so shards of the request list fan out across the pool.
  std::vector<RoutedRequest> routed(requests.size());
  ThreadPool& pool = options_.pool != nullptr ? *options_.pool : global_pool();
  pool.parallel_for(
      0, requests.size(), kShardSize, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const RetrievalRequest& req = requests[i];
          RoutedRequest& slot = routed[i];
          auto single = system_->retrieve(req.data_id, req.ingress);
          if (!single.ok()) {
            slot.outcome = RoutedRequest::Outcome::kError;
            slot.error = single.error();
            continue;
          }
          if (!single.value().route.found) {
            slot.outcome = RoutedRequest::Outcome::kNotFound;
            continue;
          }
          const OpReport report = std::move(single).value();
          // A cache hit is answered at the ingress: no network legs,
          // no server visit — phase 2 charges cache_service_ms only.
          if (report.served_from_cache) {
            slot.cached = true;
            slot.outcome = RoutedRequest::Outcome::kOk;
            continue;
          }
          // Request leg: hops of the walked route; response leg:
          // shortest path back from the responder's switch.
          slot.responder = report.route.responder;
          const topology::SwitchId responder_sw =
              system_->network().server(slot.responder).info().attached_to;
          slot.req_ms = static_cast<double>(report.selected_hops) *
                        options_.link_latency_ms;
          const std::size_t back_hops =
              apsp_hops.hop_count(responder_sw, req.ingress);
          slot.resp_ms = back_hops == graph::kNoPath
                             ? 0.0
                             : static_cast<double>(back_hops) *
                                   options_.link_latency_ms;
          slot.outcome = RoutedRequest::Outcome::kOk;
        }
      });

  // Errors surface in request order (the serial path reported the
  // first failing request; the parallel one must agree).
  for (const RoutedRequest& slot : routed) {
    if (slot.outcome == RoutedRequest::Outcome::kError) return slot.error;
  }

  // --- Phase 2: FIFO queueing at servers, in server-arrival order. ---
  // Requests reach their responder in order of arrival time; a tie goes
  // to the earlier injection, then to the earlier request.
  struct Arrival {
    double at;
    double inject;
    std::size_t request;
  };
  std::vector<Arrival> arrivals;
  std::vector<double> delays;
  delays.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RoutedRequest& slot = routed[i];
    if (slot.outcome == RoutedRequest::Outcome::kNotFound) {
      ++out.not_found;
      continue;
    }
    const double inject = requests[i].at_ms;
    if (slot.cached) {
      ++out.cache_hits;
      const double done = inject + options_.cache_service_ms;
      delays.push_back(done - inject);
      out.makespan_ms = std::max(out.makespan_ms, done);
      continue;
    }
    arrivals.push_back({inject + slot.req_ms, inject, i});
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.inject != b.inject) return a.inject < b.inject;
              return a.request < b.request;
            });
  std::vector<double> free_at(system_->network().server_count(), 0.0);
  for (const Arrival& a : arrivals) {
    const RoutedRequest& slot = routed[a.request];
    double& free = free_at[slot.responder];
    free = std::max(a.at, free) + options_.service_time_ms;
    const double done = free + slot.resp_ms;
    delays.push_back(done - a.inject);
    out.makespan_ms = std::max(out.makespan_ms, done);
  }
  out.delay = summarize(std::move(delays));
  return out;
}

Result<DelayExperimentResult> RetrievalDelayExperiment::run_uniform(
    const std::vector<std::string>& ids, std::size_t count,
    double spacing_ms, Rng& rng) {
  if (ids.empty()) {
    return Error(ErrorCode::kInvalidArgument,
                 "run_uniform: no data ids to retrieve");
  }
  // Per-shard RNG streams (the C-regulation idiom): one base seed from
  // the caller's generator, shard s draws from Rng(base + s). The
  // generated request set is a pure function of (seed, ids, count).
  const std::uint64_t base_seed = rng.next_u64();
  const std::size_t switch_count = system_->network().switch_count();
  std::vector<RetrievalRequest> requests(count);
  const std::size_t shards = (count + kShardSize - 1) / kShardSize;
  ThreadPool& pool = options_.pool != nullptr ? *options_.pool : global_pool();
  pool.parallel_for(0, shards, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      Rng shard_rng(base_seed + s);
      const std::size_t begin = s * kShardSize;
      const std::size_t end = std::min(count, begin + kShardSize);
      for (std::size_t i = begin; i < end; ++i) {
        RetrievalRequest& req = requests[i];
        req.data_id = ids[shard_rng.next_below(ids.size())];
        req.ingress = shard_rng.next_below(switch_count);
        req.at_ms = static_cast<double>(i) * spacing_ms;
      }
    }
  });
  return run(requests);
}

}  // namespace gred::core
