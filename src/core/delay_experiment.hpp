// Response-delay experiments (the measurement behind Fig. 8): replay a
// set of retrieval requests with per-hop propagation latency, a
// per-request service time, and FIFO queueing at servers. Every hop
// costs `link_latency_ms`.
//
// The replay is two-phase so it parallelizes without losing
// determinism: phase 1 routes every request through the data plane —
// requests are independent, so they shard across the thread pool into
// fixed-size blocks with results written to per-request slots; phase 2
// serially queues the precomputed (request leg, service, response leg)
// triples at their servers in order of arrival (ties by injection
// time, then request order). Aggregate statistics are therefore
// bit-identical for every thread count.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/system.hpp"

namespace gred {
class ThreadPool;
}  // namespace gred

namespace gred::core {

struct DelayModelOptions {
  /// Per-hop propagation latency.
  double link_latency_ms = 0.05;
  /// Service time per retrieval at a server (FIFO queue).
  double service_time_ms = 0.20;
  /// Pool for the parallel routing phase; nullptr = the global pool
  /// (GRED_THREADS). Results are thread-count invariant either way.
  ThreadPool* pool = nullptr;
  /// Service time charged to a retrieval answered by the ingress
  /// switch's hot-key cache (served_from_cache reports): no network
  /// legs, no server FIFO — the switch answers locally. Only relevant
  /// when the network has its cache enabled; put the cache in kServe
  /// mode first, since phase 1 routes requests concurrently and only
  /// probes are concurrency-safe.
  double cache_service_ms = 0.02;
};

struct DelayExperimentResult {
  Summary delay;              ///< response-delay statistics (ms)
  std::size_t requests = 0;   ///< requests replayed
  std::size_t not_found = 0;  ///< retrievals that missed (excluded)
  double makespan_ms = 0.0;   ///< completion time of the last response
  std::size_t cache_hits = 0;  ///< requests served from a hot-key cache
};

/// One retrieval request to replay.
struct RetrievalRequest {
  std::string data_id;
  topology::SwitchId ingress = 0;
  double at_ms = 0.0;  ///< injection time (>= 0)
};

class RetrievalDelayExperiment {
 public:
  RetrievalDelayExperiment(GredSystem& system, DelayModelOptions options)
      : system_(&system), options_(options) {}

  /// Replays the given requests (data must already be placed).
  Result<DelayExperimentResult> run(
      const std::vector<RetrievalRequest>& requests);

  /// Convenience: `count` retrievals of random ids from `ids`, random
  /// ingress switches, injected `spacing_ms` apart. Requests are drawn
  /// in fixed-size blocks with per-block RNG streams seeded from
  /// `rng`, so the request set depends only on the seed — never on the
  /// thread count.
  Result<DelayExperimentResult> run_uniform(
      const std::vector<std::string>& ids, std::size_t count,
      double spacing_ms, Rng& rng);

 private:
  GredSystem* system_;
  DelayModelOptions options_;
};

}  // namespace gred::core
