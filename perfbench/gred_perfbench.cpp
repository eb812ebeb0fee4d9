// GRED performance benchmark program: one closed-loop client against one
// GRED deployment for a fixed wall-clock time.
//
//   gred_perfbench --workload read|skew|churn --seed N --seconds T
//                  [--trace 0|1] [--spans FILE]
//
// Each run builds the same 128-switch Waxman edge network (4 servers per
// switch), brings GRED up on it kSetupRepeats times and places the seeded
// item set each time; setup_s is the median of those set-ups. The seed
// draws the item identifiers, the request stream and the dynamics events.
// The topology is fixed, so the spread between seeds measures the system
// rather than the topology draw.
//
// Workloads:
//   read   uniform reads of the placed items from uniform access
//          switches, hot-key cache off: every request is routed.
//   skew   Zipf(1.1) reads with a 10% share of overwrites, hot-key cache
//          on: repeats are answered at the ingress switch, and every
//          overwrite invalidates the cached copies of its key.
//   churn  uniform reads while the controller absorbs dynamics events,
//          two at the start of every measured segment: a link add or
//          removal, link failure or repair, or switch join or leave, and a
//          range extension or retraction. The client waits for each event,
//          so event time lowers requests_per_s.
//
// Every answer is checked against the payload last written for its key,
// and every item is read back once after the run.
//
// --trace 0 drives the public GredSystem API and reports the end-to-end
// metrics. --trace 1 replays the same stream through the layer calls
// GredProtocol makes (key derivation, hot-key cache probe, data-plane
// route, cache fill/invalidate) with a span around each, turns the
// library's control-plane phase timers on for set-up and events, and
// reports per-layer metrics; --spans writes a sample of the spans as
// JSON lines. The last line of stdout is one JSON object with the keys
// correct, attempted, failed and metrics.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>

#include "common/rng.hpp"
#include "core/system.hpp"
#include "crypto/data_key.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sden/hot_key_cache.hpp"
#include "sden/network.hpp"
#include "topology/waxman.hpp"
#include "workload/zipf.hpp"

using namespace gred;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSwitches = 128;
constexpr std::size_t kServersPerSwitch = 4;
constexpr std::size_t kMinDegree = 3;
constexpr std::uint64_t kTopologySeed = 2019;
constexpr std::size_t kItems = 4096;
constexpr std::size_t kPayloadBytes = 64;
constexpr std::size_t kSetupRepeats = 15;
constexpr double kZipfExponent = 1.1;
constexpr double kWriteShare = 0.1;
constexpr std::size_t kCacheWays = 16;
/// Untimed requests before the measured region: they compile the route
/// plan and fill the hot-key cache.
constexpr std::size_t kWarmupRequests = 20000;
/// One traced request in this many keeps its spans for the span file.
constexpr std::uint64_t kSpanSampleEvery = 256;
/// The measured region is cut into segments of this many seconds, and
/// each segment's requests into windows of kWindowRequests. On a shared
/// host the speed of a core swings by up to ~1.7x within a fraction of a
/// second as other tenants come and go, independently per core, and such
/// a swing only ever slows the program down. So each segment (and each
/// set-up) first times a fixed probe, kProbeOps key derivations, on every
/// allowed CPU and runs on the fastest. Each request figure is then the
/// median over the best 1/kKeepShare of segments (throughput) or windows
/// (latency quantiles) by that figure: the program's speed where other
/// tenants disturbed it least. A slow path every segment or window takes
/// (a dynamics event, a cache miss) still counts in full; a stall that
/// only some of them see does not.
constexpr double kSegmentSeconds = 0.1;
constexpr std::size_t kWindowRequests = 10000;
constexpr std::size_t kKeepShare = 20;
constexpr std::size_t kProbeOps = 1000;
/// Churn: every segment first absorbs one heavy event (a link add or
/// removal, a link failure or repair, a switch join or leave: each a
/// control-plane rebuild) and one range extension or retraction (cheap),
/// so segments stay comparable. Odd segments undo what even ones did.
constexpr std::size_t kHeavyKinds = 3;
constexpr std::size_t kEventsPerSegment = 2;
/// Skew-workload clients enter at this many access switches (seeded), so
/// each access switch's cache sees a share of the hot set.
constexpr std::size_t kAccessSwitches = 8;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Moves the calling thread to `cpu`; a no-op when it cannot.
void pin(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

/// Mean nanoseconds of one key derivation (SHA-256 of an identifier)
/// over kProbeOps identifiers: the speed probe of the current core.
double probe_ns(const std::vector<std::string>& ids) {
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; k < kProbeOps; ++k) {
    const crypto::DataKey key(ids[k % ids.size()]);
  }
  return ns_between(t0, Clock::now()) / static_cast<double>(kProbeOps);
}

/// Probes every allowed CPU and moves the calling thread to the fastest;
/// a no-op when the affinity cannot be read.
void pin_fastest(const std::vector<int>& cpus,
                 const std::vector<std::string>& ids) {
  if (cpus.empty()) return;
  double best = std::numeric_limits<double>::infinity();
  int best_cpu = cpus.front();
  for (const int c : cpus) {
    pin(c);
    const double t = probe_ns(ids);
    if (t < best) {
      best = t;
      best_cpu = c;
    }
  }
  pin(best_cpu);
}

/// Linear-interpolated quantile of sorted samples.
double quantile(std::span<const float> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1.0 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

/// Median of values sorted either way.
double median(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

/// Median of the best 1/kKeepShare of `values`: the smallest, or the
/// largest when `higher_is_better`.
double median_of_best(std::vector<double> values, bool higher_is_better) {
  if (higher_is_better) {
    std::sort(values.begin(), values.end(), std::greater<>());
  } else {
    std::sort(values.begin(), values.end());
  }
  values.resize(std::min(values.size(),
                         std::max<std::size_t>(1, values.size() / kKeepShare)));
  return median(values);
}

/// Lets the calling thread run on every allowed CPU again.
void unpin(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

[[noreturn]] void die(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "gred_perfbench: %s\n", what.c_str());
  std::exit(1);
}

// --- command line ---------------------------------------------------

enum class Workload { kRead, kSkew, kChurn };

struct Args {
  Workload workload = Workload::kRead;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

std::uint64_t parse_uint(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    die("bad value for " + flag + ": " + text);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) die("missing value for " + flag);
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      a.workload_name = value;
      if (a.workload_name == "read") {
        a.workload = Workload::kRead;
      } else if (a.workload_name == "skew") {
        a.workload = Workload::kSkew;
      } else if (a.workload_name == "churn") {
        a.workload = Workload::kChurn;
      } else {
        die("unknown workload: " + a.workload_name);
      }
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_uint(flag, value);
      if (s == 0 || s > 3600) die("--seconds must be in [1, 3600]");
      a.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint(flag, value);
      if (t > 1) die("--trace must be 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      die("unknown flag: " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    die("usage: gred_perfbench --workload read|skew|churn --seed N "
        "--seconds T [--trace 0|1] [--spans FILE]");
  }
  return a;
}

// --- deployment and inputs ------------------------------------------

topology::EdgeNetwork make_network() {
  Rng rng(kTopologySeed);
  topology::WaxmanOptions opt;
  opt.node_count = kSwitches;
  opt.min_degree = kMinDegree;
  auto topo = topology::generate_waxman(opt, rng);
  if (!topo.ok()) die("topology: " + topo.error().to_string());
  return topology::uniform_edge_network(std::move(topo).value().graph,
                                        kServersPerSwitch);
}

/// The seeded item set and the payload last written for each item.
struct Items {
  std::vector<std::string> ids;
  std::vector<std::string> payloads;
  std::vector<std::uint32_t> versions;

  explicit Items(std::uint64_t seed) {
    for (std::size_t i = 0; i < kItems; ++i) {
      ids.push_back("item-" + std::to_string(seed) + "-" + std::to_string(i));
      versions.push_back(0);
      payloads.push_back(payload_of(i));
    }
  }

  /// Fixed-size payload naming the item and its version, so a stale
  /// answer never compares equal.
  std::string payload_of(std::size_t i) const {
    std::string p = "v";
    p += std::to_string(versions[i]);
    p += ':';
    p += ids[i];
    p.resize(kPayloadBytes, '.');
    return p;
  }

  void overwrite(std::size_t i) {
    ++versions[i];
    payloads[i] = payload_of(i);
  }
};

struct Request {
  std::size_t item = 0;
  sden::SwitchId ingress = 0;
  bool write = false;
};

/// The seeded client request stream. Ingress switches are drawn from the
/// original switches, which stay DT participants under every workload,
/// so the stream does not depend on when events happen.
class RequestStream {
 public:
  RequestStream(Workload workload, std::uint64_t seed)
      : skewed_(workload == Workload::kSkew),
        rng_(seed ^ 0x7265717565737473ULL),
        zipf_(kItems, kZipfExponent),
        // Popularity rank -> item through a seeded permutation, so the
        // hot keys (and the switches that own them) change with the seed.
        rank_to_item_(rng_.permutation(kItems)),
        access_(rng_.permutation(kSwitches)) {
    if (skewed_) access_.resize(kAccessSwitches);
  }

  Request next() {
    Request r;
    if (skewed_) {
      r.item = rank_to_item_[zipf_.sample(rng_)];
      r.write = rng_.bernoulli(kWriteShare);
    } else {
      r.item = static_cast<std::size_t>(rng_.next_below(kItems));
    }
    r.ingress = static_cast<sden::SwitchId>(
        access_[rng_.next_below(access_.size())]);
    return r;
  }

 private:
  bool skewed_;
  Rng rng_;
  workload::ZipfSampler zipf_;
  std::vector<std::size_t> rank_to_item_;
  /// Switches clients enter at: all of them, or kAccessSwitches (skew).
  std::vector<std::size_t> access_;
};

/// One dynamics event. Events come in do/undo pairs, so the topology of
/// the original switches is restored after every pair and the cost of an
/// event stays the same over the run (a switch that left keeps its id as
/// an inert transit switch without links).
struct Event {
  enum class Kind {
    kAddLink,
    kRemoveLink,
    kAddSwitch,
    kRemoveSwitch,
    kExtendRange,
    kRetractRange,
  };
  Kind kind = Kind::kAddLink;
  sden::SwitchId a = 0;
  sden::SwitchId b = 0;
  double weight = 1.0;
  topology::ServerId server = 0;
};

/// True when u and v stay connected without the edge (u, v).
bool connected_without(const graph::Graph& g, sden::SwitchId u,
                       sden::SwitchId v) {
  std::vector<bool> seen(g.node_count(), false);
  std::vector<sden::SwitchId> stack = {u};
  seen[u] = true;
  while (!stack.empty()) {
    const sden::SwitchId x = stack.back();
    stack.pop_back();
    for (const graph::EdgeTo& e : g.neighbors(x)) {
      if ((x == u && e.to == v) || (x == v && e.to == u)) continue;
      if (e.to == v) return true;
      if (!seen[e.to]) {
        seen[e.to] = true;
        stack.push_back(e.to);
      }
    }
  }
  return false;
}

/// A random switch 2-3 hops from `a`, or any non-adjacent one when there
/// is none: edge deployments add local links, not global wormholes.
sden::SwitchId nearby(const graph::ApspResult& apsp, const graph::Graph& g,
                      sden::SwitchId a, Rng& rng) {
  sden::SwitchId pick = a;
  std::size_t seen = 0;
  for (sden::SwitchId t = 0; t < kSwitches; ++t) {
    const double d = apsp.dist(a, t);
    if (d < 2.0 || d > 3.0) continue;
    if (rng.next_below(++seen) == 0) pick = t;
  }
  while (pick == a || g.find_edge(a, pick) != nullptr) {
    pick = static_cast<sden::SwitchId>(rng.next_below(kSwitches));
  }
  return pick;
}

/// kEventsPerSegment seeded events over the original topology for each
/// of `segments` segments. Each pair of segments takes a do/undo pair of
/// one heavy kind (the kinds in seeded order within each run of
/// kHeavyKinds pairs) and a range extend/retract pair: the even segment
/// does, the odd one undoes.
std::vector<Event> make_events(const core::GredSystem& sys,
                               std::uint64_t seed, std::size_t segments) {
  Rng rng(seed ^ 0x6576656e7473ULL);
  const graph::Graph& g = sys.network().description().switches();
  const graph::ApspResult& apsp = sys.controller().apsp();
  const auto any_switch = [&rng] {
    return static_cast<sden::SwitchId>(rng.next_below(kSwitches));
  };
  std::vector<Event> events;
  std::vector<std::size_t> kinds;
  for (std::size_t pair = 0; 2 * pair < segments; ++pair) {
    if (pair % kHeavyKinds == 0) kinds = rng.permutation(kHeavyKinds);
    sden::SwitchId a = any_switch();
    Event ev;
    Event undo;
    switch (kinds[pair % kHeavyKinds]) {
      case 0:  // a new local link, then its removal
        ev = {Event::Kind::kAddLink, a, nearby(apsp, g, a, rng), 1.0, 0};
        undo = ev;
        undo.kind = Event::Kind::kRemoveLink;
        break;
      case 1: {  // a link failure that keeps the network connected, then
                 // its repair
        std::vector<graph::EdgeTo> spare;
        for (;;) {
          for (const graph::EdgeTo& e : g.neighbors(a)) {
            if (connected_without(g, a, e.to)) spare.push_back(e);
          }
          if (!spare.empty()) break;
          a = any_switch();
        }
        const graph::EdgeTo cut = spare[rng.next_below(spare.size())];
        ev = {Event::Kind::kRemoveLink, a, cut.to, cut.weight, 0};
        undo = {Event::Kind::kAddLink, a, cut.to, cut.weight, 0};
        break;
      }
      default:  // a one-server switch joins next to `a`, then leaves
        ev = {Event::Kind::kAddSwitch, a, nearby(apsp, g, a, rng), 1.0, 0};
        undo = ev;
        undo.kind = Event::Kind::kRemoveSwitch;
        break;
    }
    // One server of some switch delegates its range, then retracts it.
    const std::vector<topology::ServerId>& servers =
        sys.network().description().servers_at(any_switch());
    Event extend;
    extend.kind = Event::Kind::kExtendRange;
    extend.server = servers[rng.next_below(servers.size())];
    Event retract = extend;
    retract.kind = Event::Kind::kRetractRange;
    for (const Event& e : {ev, extend, undo, retract}) events.push_back(e);
  }
  return events;
}

// --- set-up ---------------------------------------------------------

struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Sum in milliseconds of one library control-plane phase timer.
double phase_ms(const obs::Registry::Snapshot& snap, const std::string& phase) {
  const std::string name = "control.phase." + phase + ".ms";
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return h.sum;
  }
  return 0.0;
}

/// Set-up figures are medians over the set-ups.
struct Setup {
  std::optional<core::GredSystem> sys;
  double seconds = 0.0;   ///< create + place
  double create_s = 0.0;  ///< GredSystem::create
  double place_s = 0.0;   ///< placing every item
  /// Phase timers of the last set-up (filled when obs is on).
  obs::Registry::Snapshot phases;
};

/// Brings GRED up kSetupRepeats times and places every item each time;
/// keeps the last deployment.
Setup set_up(const topology::EdgeNetwork& desc, const Items& items,
             std::uint64_t seed, Counts& counts) {
  Setup out;
  std::vector<double> total;
  std::vector<double> create;
  std::vector<double> place;
  const std::vector<int> cpus = allowed_cpus();
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    pin_fastest(cpus, items.ids);
    out.sys.reset();
    obs::registry().reset_values();
    const Clock::time_point t0 = Clock::now();
    auto built = core::GredSystem::create(desc, {});
    if (!built.ok()) die("GredSystem::create: " + built.error().to_string());
    out.sys.emplace(std::move(built).value());
    const Clock::time_point t1 = Clock::now();
    Rng rng(seed ^ 0x706c616365ULL);
    for (std::size_t i = 0; i < kItems; ++i) {
      const auto ingress = static_cast<sden::SwitchId>(rng.next_below(kSwitches));
      counts.record(out.sys->place(items.ids[i], items.payloads[i], ingress).ok());
    }
    const Clock::time_point t2 = Clock::now();
    create.push_back(ns_between(t0, t1) * 1e-9);
    place.push_back(ns_between(t1, t2) * 1e-9);
    total.push_back(ns_between(t0, t2) * 1e-9);
  }
  unpin(cpus);
  out.phases = obs::registry().snapshot();
  for (std::vector<double>* v : {&total, &create, &place}) {
    std::sort(v->begin(), v->end());
  }
  out.seconds = median(total);
  out.create_s = median(create);
  out.place_s = median(place);
  return out;
}

// --- the client -----------------------------------------------------

/// Duration sum and call count of one span name over a traced run.
struct SpanTotal {
  double ns = 0.0;
  std::uint64_t count = 0;
  void add(double d) {
    ns += d;
    ++count;
  }
  double mean() const {
    return count == 0 ? 0.0 : ns / static_cast<double>(count);
  }
};

/// One recorded span: `id` names the request ("r<n>") or event ("e<n>")
/// it belongs to, `parent` the enclosing span ("" for the root).
struct SpanRecord {
  char kind = 'r';
  std::uint64_t id = 0;
  const char* name = "";
  const char* parent = "";
  double start_ns = 0.0;
  double end_ns = 0.0;
};

class Client {
 public:
  Client(core::GredSystem& sys, Items& items, Counts& counts, bool traced)
      : sys_(sys), items_(items), counts_(counts), traced_(traced) {}

  /// Untimed requests: plan compile, cache fill, scratch capacity.
  void warm_up(RequestStream& stream, std::size_t requests) {
    for (std::size_t i = 0; i < requests; ++i) {
      const Request rq = stream.next();
      if (rq.write) items_.overwrite(rq.item);
      counts_.record(facade_request(rq, nullptr));
    }
  }

  /// Closed loop for `segments` segments of kSegmentSeconds each; a
  /// segment first applies its kEventsPerSegment events (if any), then
  /// sends requests until its time is up.
  void run(RequestStream& stream, const std::vector<Event>& events,
           std::size_t segments) {
    latency_us_.reserve(1 << 18);
    origin_ = Clock::now();
    const auto length = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kSegmentSeconds));
    const std::vector<int> cpus = allowed_cpus();
    std::size_t next_event = 0;
    for (std::size_t seg = 0; seg < segments; ++seg) {
      pin_fastest(cpus, items_.ids);
      const Clock::time_point seg_start = Clock::now();
      const Clock::time_point seg_stop = seg_start + length;
      latency_us_.clear();
      const std::size_t last_event =
          std::min(events.size(), (seg + 1) * kEventsPerSegment);
      bool after_event = false;
      for (; next_event < last_event; ++next_event) {
        counts_.record(event(events[next_event], next_event));
        after_event = true;
      }
      std::uint64_t seg_requests = 0;
      Clock::time_point now;
      while ((now = Clock::now()) < seg_stop) {
        const Request rq = stream.next();
        if (rq.write) items_.overwrite(rq.item);
        const bool ok = traced_ ? traced_request(rq, after_event)
                                : facade_request(rq, &latency_us_);
        counts_.record(ok);
        ++requests_;
        ++seg_requests;
        after_event = false;
      }
      const double seconds = ns_between(seg_start, now) * 1e-9;
      elapsed_s_ += seconds;
      segments_.push_back({seg_requests, seconds});
      // The last, partial window of a segment is dropped.
      for (std::size_t w = 0; w + kWindowRequests <= latency_us_.size();
           w += kWindowRequests) {
        const std::span<float> window(latency_us_.data() + w, kWindowRequests);
        std::sort(window.begin(), window.end());
        windows_.push_back({quantile(window, 0.50), quantile(window, 0.99)});
      }
    }
    unpin(cpus);
  }

  struct Segment {
    std::uint64_t requests = 0;
    double seconds = 0.0;
  };
  const std::vector<Segment>& segments() const { return segments_; }

  /// Latency quantiles of kWindowRequests consecutive requests; none in a
  /// traced run, which does not time requests through the public API.
  struct Window {
    double p50_us = 0.0;
    double p99_us = 0.0;
  };
  const std::vector<Window>& windows() const { return windows_; }

  /// Reads every item back once through the public API.
  void verify_all() {
    for (std::size_t i = 0; i < kItems; ++i) {
      const auto r = sys_.retrieve(items_.ids[i],
                                   static_cast<sden::SwitchId>(i % kSwitches));
      counts_.record(r.ok() && r.value().route.found &&
                     r.value().route.payload == items_.payloads[i]);
    }
  }

  std::uint64_t requests() const { return requests_; }
  double elapsed_s() const { return elapsed_s_; }

  // Traced-run totals.
  SpanTotal request, key, probe, route, event_route, update, events;
  std::uint64_t hops = 0;
  std::uint64_t reads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t migrated = 0;
  std::vector<SpanRecord> spans;

 private:
  /// One request through GredSystem, timed when `latencies` is set.
  bool facade_request(const Request& rq, std::vector<float>* latencies) {
    const std::string& id = items_.ids[rq.item];
    const std::string& expected = items_.payloads[rq.item];
    const Clock::time_point t0 = Clock::now();
    bool ok = false;
    if (rq.write) {
      ok = sys_.place(id, expected, rq.ingress).ok();
    } else {
      const auto r = sys_.retrieve(id, rq.ingress);
      ok = r.ok() && r.value().route.found &&
           r.value().route.payload == expected;
    }
    const Clock::time_point t1 = Clock::now();
    if (latencies != nullptr) {
      latencies->push_back(static_cast<float>(ns_between(t0, t1) * 1e-3));
    }
    return ok;
  }

  /// One request through the layer calls GredProtocol::place/retrieve
  /// make, with a span around each.
  bool traced_request(const Request& rq, bool after_event) {
    sden::SdenNetwork& net = sys_.network();
    sden::HotKeyCache* cache = net.hot_key_cache();
    const std::string& id = items_.ids[rq.item];
    const std::string& expected = items_.payloads[rq.item];

    const Clock::time_point t0 = Clock::now();
    pkt_.type = rq.write ? sden::PacketType::kPlacement
                         : sden::PacketType::kRetrieval;
    pkt_.data_id.assign(id);
    const crypto::DataKey data_key(id);
    pkt_.target = {data_key.position().x, data_key.position().y};
    pkt_.set_key(data_key);
    pkt_.clear_virtual_link();
    if (rq.write) {
      pkt_.payload.assign(expected);
    } else {
      pkt_.payload.clear();
    }
    const Clock::time_point t_key = Clock::now();

    const sden::HotKeyCache::Entry* hit = nullptr;
    Clock::time_point t_probe = t_key;
    if (!rq.write && cache != nullptr) {
      hit = cache->probe(rq.ingress, pkt_.key_digest);
      t_probe = Clock::now();
    }

    bool ok = false;
    Clock::time_point t_route = t_probe;
    if (hit != nullptr) {
      ok = hit->payload == expected;
      ++cache_hits;
    } else {
      net.route(pkt_, rq.ingress, result_);
      t_route = Clock::now();
      ok = result_.status.ok() && !result_.delivered_to.empty() &&
           (rq.write || (result_.found && result_.payload == expected));
      hops += result_.hop_count();
    }

    Clock::time_point t_end = t_route;
    const bool updates = cache != nullptr && (rq.write || (hit == nullptr && ok));
    if (updates) {
      if (rq.write) {
        cache->invalidate_id(pkt_.key_digest);
      } else {
        const sden::SwitchId home =
            net.server(result_.delivered_to.front()).info().attached_to;
        cache->insert(rq.ingress, pkt_.key_digest, result_.payload, home,
                      result_.responder);
      }
      t_end = Clock::now();
    }

    if (!rq.write) ++reads;
    request.add(ns_between(t0, t_end));
    key.add(ns_between(t0, t_key));
    if (t_probe != t_key) probe.add(ns_between(t_key, t_probe));
    if (hit == nullptr) {
      (after_event ? event_route : route).add(ns_between(t_probe, t_route));
    }
    if (updates) update.add(ns_between(t_route, t_end));

    if (requests_ % kSpanSampleEvery == 0) {
      const std::uint64_t rid = requests_;
      record_span('r', rid, "request", "", t0, t_end);
      record_span('r', rid, "key", "request", t0, t_key);
      if (t_probe != t_key) {
        record_span('r', rid, "cache_probe", "request", t_key, t_probe);
      }
      if (hit == nullptr) {
        record_span('r', rid, "route", "request", t_probe, t_route);
      }
      if (updates) {
        record_span('r', rid, rq.write ? "cache_invalidate" : "cache_fill",
                    "request", t_route, t_end);
      }
    }
    return ok;
  }

  bool event(const Event& e, std::size_t index) {
    if (traced_) obs::set_enabled(true);
    const Clock::time_point t0 = Clock::now();
    bool ok = false;
    switch (e.kind) {
      case Event::Kind::kAddLink:
        ok = sys_.add_link(e.a, e.b, e.weight).ok();
        break;
      case Event::Kind::kRemoveLink:
        ok = sys_.remove_link(e.a, e.b).ok();
        break;
      case Event::Kind::kAddSwitch: {
        const auto r = sys_.add_switch({e.a, e.b}, /*servers=*/1);
        ok = r.ok();
        joined_ = ok ? r.value() : sden::kNoSwitch;
        break;
      }
      case Event::Kind::kRemoveSwitch:
        ok = joined_ != sden::kNoSwitch && sys_.remove_switch(joined_).ok();
        joined_ = sden::kNoSwitch;
        break;
      case Event::Kind::kExtendRange:
        ok = sys_.extend_range(e.server).ok();
        break;
      case Event::Kind::kRetractRange:
        ok = sys_.retract_range(e.server).ok();
        break;
    }
    const Clock::time_point t1 = Clock::now();
    if (traced_) {
      obs::set_enabled(false);
      events.add(ns_between(t0, t1));
      const bool moves_items = e.kind == Event::Kind::kAddSwitch ||
                               e.kind == Event::Kind::kRemoveSwitch ||
                               e.kind == Event::Kind::kRemoveLink;
      if (ok && moves_items) migrated += sys_.controller().last_migration_count();
      record_span('e', index, "event", "", t0, t1);
    }
    return ok;
  }

  void record_span(char kind, std::uint64_t id, const char* name,
                   const char* parent, Clock::time_point start,
                   Clock::time_point end) {
    spans.push_back({kind, id, name, parent, ns_between(origin_, start),
                     ns_between(origin_, end)});
  }

  core::GredSystem& sys_;
  Items& items_;
  Counts& counts_;
  const bool traced_;
  Clock::time_point origin_{};
  std::vector<float> latency_us_;  ///< the current segment's
  std::vector<Segment> segments_;
  std::vector<Window> windows_;
  std::uint64_t requests_ = 0;
  double elapsed_s_ = 0.0;
  sden::SwitchId joined_ = sden::kNoSwitch;
  sden::Packet pkt_;
  sden::RouteResult result_;
};

// --- output ---------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The request figures: per-window p50 and p99 latency and per-segment
/// throughput, each the median over the windows (segments) best by it.
struct RequestFigures {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double requests_per_s = 0.0;
};

RequestFigures request_figures(const Client& client) {
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> rate;
  for (const Client::Window& w : client.windows()) {
    p50.push_back(w.p50_us);
    p99.push_back(w.p99_us);
  }
  for (const Client::Segment& s : client.segments()) {
    rate.push_back(ratio(static_cast<double>(s.requests), s.seconds));
  }
  return {median_of_best(p50, false), median_of_best(p99, false),
          median_of_best(rate, true)};
}

void write_spans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) die("cannot write " + path);
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"id\": \"%c%llu\", \"span\": \"%s\", \"parent\": \"%s\", "
                 "\"start_ns\": %.0f, \"end_ns\": %.0f}\n",
                 s.kind, static_cast<unsigned long long>(s.id), s.name,
                 s.parent, s.start_ns, s.end_ns);
  }
  if (std::fclose(f) != 0) die("cannot write " + path);
}

void print_result(const Counts& counts, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              counts.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(counts.attempted),
              static_cast<unsigned long long>(counts.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      die(std::string("metric ") + metrics[i].name + " is not finite");
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // The library's own instrumentation runs only where a traced run asks
  // for it: set-up and dynamics events, never the request path.
  obs::set_enabled(args.trace);

  const topology::EdgeNetwork desc = make_network();
  Items items(args.seed);
  Counts counts;
  Setup setup = set_up(desc, items, args.seed, counts);
  obs::set_enabled(false);
  core::GredSystem& sys = *setup.sys;
  if (args.workload == Workload::kSkew) {
    sys.network().enable_hot_key_cache(kCacheWays);
  }

  const auto segments = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(args.seconds / kSegmentSeconds)));
  std::vector<Event> events;
  if (args.workload == Workload::kChurn) {
    events = make_events(sys, args.seed, segments);
  }

  RequestStream stream(args.workload, args.seed);
  Client client(sys, items, counts, args.trace);
  client.warm_up(stream, kWarmupRequests);
  obs::registry().reset_values();
  client.run(stream, events, segments);
  const obs::Registry::Snapshot run_phases = obs::registry().snapshot();
  client.verify_all();

  std::fprintf(stderr,
               "gred_perfbench: workload %s seed %llu: %llu requests in "
               "%.2f s, %zu events, %llu failed of %llu\n",
               args.workload_name.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(client.requests()),
               client.elapsed_s(), events.size(),
               static_cast<unsigned long long>(counts.failed),
               static_cast<unsigned long long>(counts.attempted));

  std::vector<Metric> metrics;
  if (!args.trace) {
    const RequestFigures m = request_figures(client);
    metrics = {
        {"request_p50_us", m.p50_us, "us"},
        {"request_p99_us", m.p99_us, "us"},
        {"requests_per_s", m.requests_per_s, "1/s"},
        {"setup_s", setup.seconds, "s"},
    };
  } else {
    if (!args.spans_path.empty()) write_spans(args.spans_path, client.spans);
    const Client& c = client;
    const double routed =
        static_cast<double>(c.route.count + c.event_route.count);
    const double n_events = static_cast<double>(c.events.count);
    const auto per_event_us = [&](const char* phase) {
      return ratio(phase_ms(run_phases, phase) * 1e3, n_events);
    };
    // The request span is exactly covered by its child spans, which run
    // back to back: request_ns = key + probe + route + update per request.
    metrics = {
        {"request_ns", c.request.mean(), "ns"},
        {"key_ns", c.key.mean(), "ns"},
        {"cache_probe_ns", c.probe.mean(), "ns"},
        {"route_ns", c.route.mean(), "ns"},
        {"cache_update_ns", c.update.mean(), "ns"},
        {"hops_per_route", ratio(static_cast<double>(c.hops), routed), "count"},
        {"route_share", ratio(routed, static_cast<double>(c.request.count)),
         "ratio"},
        {"cache_hits", static_cast<double>(c.cache_hits), "count"},
        {"cache_hit_ratio",
         ratio(static_cast<double>(c.cache_hits), static_cast<double>(c.reads)),
         "ratio"},
        {"events", n_events, "count"},
        {"event_us", c.events.mean() * 1e-3, "us"},
        {"event_route_us", c.event_route.mean() * 1e-3, "us"},
        {"event_apsp_us", per_event_us("apsp"), "us"},
        {"event_dt_build_us", per_event_us("dt_build"), "us"},
        {"event_install_us", per_event_us("install"), "us"},
        {"event_incremental_us", per_event_us("incremental_rebuild"), "us"},
        {"event_install_patch_us", per_event_us("install_patch"), "us"},
        {"migrated_items", static_cast<double>(c.migrated), "count"},
        {"setup_create_s", setup.create_s, "s"},
        {"setup_place_s", setup.place_s, "s"},
        {"setup_apsp_ms", phase_ms(setup.phases, "apsp"), "ms"},
        {"setup_embed_ms", phase_ms(setup.phases, "mds_embed"), "ms"},
        {"setup_cvt_ms", phase_ms(setup.phases, "cvt"), "ms"},
        {"setup_dt_build_ms", phase_ms(setup.phases, "dt_build"), "ms"},
        {"setup_install_ms", phase_ms(setup.phases, "install"), "ms"},
    };
  }
  print_result(counts, metrics);
  return 0;
}
