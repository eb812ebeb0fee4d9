#include "shard/sharded_data_plane.hpp"

#include <chrono>
#include <cmath>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/shard_partition.hpp"
#include "obs/metrics.hpp"
#include "sden/plan_walk.hpp"
#include "sden/route_errors.hpp"

namespace gred::shard {

namespace {

/// Slots per cross-shard ring. Small enough that S^2 rings stay cheap,
/// large enough that a spill (overflow vector) is a burst event, not
/// the steady state — the drain side retires whole batches per pass.
constexpr std::size_t kRingCapacity = 1024;
/// Continuations popped per ring visit (one head retire per batch).
constexpr std::size_t kDrainBatch = 64;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::size_t default_shard_count() {
  return env_parallelism_or_hardware("GRED_SHARDS");
}

ShardedDataPlane::ShardedDataPlane(sden::SdenNetwork& net, std::size_t shards)
    : net_(net) {
  std::size_t s = shards == 0 ? default_shard_count() : shards;
  const std::size_t n = net_.switch_count();
  if (n > 0 && s > n) s = n;
  if (s < 1) s = 1;

  shards_.reserve(s);
  for (std::size_t i = 0; i < s; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  rings_.resize(s * s);
  for (std::size_t from = 0; from < s; ++from) {
    for (std::size_t to = 0; to < s; ++to) {
      if (from == to) continue;
      rings_[from * s + to] = std::make_unique<SpscRing<Handoff>>(kRingCapacity);
    }
  }
  sync_plans();

  threads_.reserve(s > 0 ? s - 1 : 0);
  for (std::size_t me = 1; me < s; ++me) {
    threads_.emplace_back([this, me] { worker_main(me); });
  }
}

ShardedDataPlane::~ShardedDataPlane() {
  {
    MutexLock lk(mu_);
    exiting_ = true;
  }
  round_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardedDataPlane::sync_plans() {
  // The shard plans are always compiled together, so the first one's
  // change count speaks for all of them.
  if (!net_.plan_stale(shards_.front()->plan)) return;
  // A change may move positions, join or drop switches: re-derive the
  // partition from the current network, then compile each shard plan.
  const std::size_t n = net_.switch_count();
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  std::vector<unsigned char> valid(n);
  for (std::size_t i = 0; i < n; ++i) {
    const sden::Switch& sw = net_.const_switch_at(i);
    xs[i] = sw.position().x;
    ys[i] = sw.position().y;
    // Inert switches (torn down by dynamics) carry stale positions;
    // sorting them after the DT participants keeps the curve runs
    // meaningful while still giving every switch an owner.
    valid[i] = sw.dt_participant() ? 1 : 0;
  }
  owner_ = partition_by_position(xs.data(), ys.data(), valid.data(), n,
                                 shards_.size());
  for (const std::unique_ptr<Shard>& sh : shards_) sh->owned.clear();
  for (std::size_t i = 0; i < n; ++i) {
    shards_[owner_[i]]->owned.push_back(static_cast<std::uint32_t>(i));
  }
  for (const std::unique_ptr<Shard>& sh : shards_) {
    net_.sync_plan(sh->plan, sh->owned);
  }
}

void ShardedDataPlane::setup_round(const sden::Packet* pkts,
                                   const sden::SwitchId* ingresses,
                                   std::size_t count,
                                   sden::RouteResult* results,
                                   bool open_loop) {
  sync_plans();
  pkts_ = pkts;
  ingresses_ = ingresses;
  results_ = results;
  count_ = count;
  open_loop_ = open_loop;

  const sden::FaultState* const fs = net_.fault_state();
  round_faults_ = (fs != nullptr && fs->any()) ? fs : nullptr;

  lane_pkts_.resize(count);
  steps_left_.resize(count);
  if (round_faults_ != nullptr) salts_.resize(count);
  if (open_loop) arrival_s_.resize(count);

  const std::size_t s = shards_.size();
  for (const std::unique_ptr<Shard>& shp : shards_) {
    Shard& sh = *shp;
    sh.initial.clear();
    sh.local_hops = 0;
    sh.handoffs_out = 0;
    sh.spills = 0;
    // relaxed: reset happens before the round's threads are released by
    // run_round()'s lock, which orders it.
    sh.completed.store(0, std::memory_order_relaxed);
    sh.overflow.resize(s);
    for (OverflowBuffer<Handoff>& v : sh.overflow) {
      // Worst case every in-flight packet spills to one destination;
      // sizing for `count` live items (plus the compaction prefix, see
      // common/overflow_buffer.hpp) keeps the round allocation-free.
      v.reset(count, kRingCapacity);
    }
    sh.drain.resize(kDrainBatch);
  }

  const std::uint32_t max_hops =
      static_cast<std::uint32_t>(net_.max_route_hops());
  std::size_t started = 0;
  for (std::size_t i = 0; i < count; ++i) {
    sden::RouteResult& res = results_[i];
    res.reset();
    if (ingresses[i] >= net_.switch_count()) {
      // Same terminal status as SdenNetwork::route, decided before any
      // shard runs; the packet never enters the network.
      res.status = sden::route_errors::bad_ingress();
      if (open_loop && latencies_s_ != nullptr) latencies_s_[i] = -1.0;
      continue;
    }
    res.switch_path.reserve(net_.path_reserve_hint());
    lane_pkts_[i] = pkts_[i];
    steps_left_[i] = max_hops;
    if (round_faults_ != nullptr) {
      salts_[i] = sden::fault_packet_salt(lane_pkts_[i]);
    }
    shards_[owner_[ingresses[i]]]->initial.push_back(
        static_cast<std::uint32_t>(i));
    ++started;
  }
  round_target_ = started;
}

void ShardedDataPlane::replay(const sden::Packet* pkts,
                              const sden::SwitchId* ingresses,
                              std::size_t count,
                              sden::RouteResult* results) {
  latencies_s_ = nullptr;
  setup_round(pkts, ingresses, count, results, /*open_loop=*/false);
  run_round();
}

LoadResult ShardedDataPlane::sustained_load(
    const sden::Packet* pkts, const sden::SwitchId* ingresses,
    std::size_t count, sden::RouteResult* results, double rate_pps,
    bool poisson, std::uint64_t seed, double* latencies_s) {
  latencies_s_ = latencies_s;
  setup_round(pkts, ingresses, count, results, /*open_loop=*/true);

  // Each shard's RNG block draws its own arrival process at the
  // shard's share of the aggregate rate; superposed Poisson streams
  // are again Poisson at rate_pps. Every arrival time is drawn here,
  // before any shard runs, ascending along the shard's `initial`
  // order, so the round only walks a cursor through that list.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    const std::size_t m = sh.initial.size();
    if (m == 0 || count == 0) continue;
    const double rate_shard =
        rate_pps * static_cast<double>(m) / static_cast<double>(count);
    Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (s + 1)));
    double t = 0.0;
    for (const std::uint32_t pi : sh.initial) {
      t += poisson ? -std::log1p(-rng.next_double()) / rate_shard
                   : 1.0 / rate_shard;
      arrival_s_[pi] = t;
    }
  }

  // Epoch slightly in the future so every shard is in its poll loop
  // before the first arrival is due.
  t0_s_ = now_s() + 1e-3;
  run_round();
  const double duration = now_s() - t0_s_;

  LoadResult out;
  out.offered_pps = rate_pps;
  out.completed = round_target_;
  out.duration_s = duration;
  out.achieved_pps =
      duration > 0 ? static_cast<double>(round_target_) / duration : 0.0;
  return out;
}

void ShardedDataPlane::run_round() {
  if (shards_.size() == 1) {
    run_shard(0);
    return;
  }
  {
    MutexLock lk(mu_);
    workers_running_ = shards_.size() - 1;
    ++round_seq_;
  }
  round_cv_.notify_all();
  run_shard(0);
  MutexLock lk(mu_);
  // Explicit wait loops (common/mutex.hpp): the guarded reads sit
  // inside the locked scope where -Wthread-safety can check them.
  while (workers_running_ != 0) done_cv_.wait(lk);
}

void ShardedDataPlane::worker_main(std::size_t me) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      MutexLock lk(mu_);
      while (!exiting_ && round_seq_ == seen) round_cv_.wait(lk);
      if (exiting_) return;
      seen = round_seq_;
    }
    run_shard(me);
    {
      MutexLock lk(mu_);
      --workers_running_;
    }
    done_cv_.notify_one();
  }
}

void ShardedDataPlane::run_shard(std::size_t me) {
  // Histograms recorded from this thread land in the shard's own slot.
  obs::pin_this_thread_shard(me);
  Shard& sh = *shards_[me];
  const std::size_t s = shards_.size();
  std::size_t next_initial = 0;

  for (;;) {
    bool any = false;

    // Closed loop starts every packet at once. Open loop starts each
    // packet whose arrival instant has passed, regardless of how many
    // are still in flight; arrivals ascend along `initial`.
    const double now = open_loop_ ? now_s() - t0_s_ : 0.0;
    while (next_initial < sh.initial.size() &&
           (!open_loop_ || arrival_s_[sh.initial[next_initial]] <= now)) {
      start_packet(me, sh.initial[next_initial++]);
      any = true;
    }

    if (s > 1) {
      any |= flush_overflow(me);
      for (std::size_t src = 0; src < s; ++src) {
        if (src == me) continue;
        SpscRing<Handoff>& in = ring(src, me);
        for (;;) {
          const std::size_t n = in.pop_batch(sh.drain.data(), kDrainBatch);
          if (n == 0) break;
          any = true;
          for (std::size_t i = 0; i < n; ++i) {
            walk(me, sh.drain[i].pkt, sh.drain[i].cur);
          }
        }
      }
    }

    if (!any) {
      if (all_done()) return;
      // Oversubscribed cores (the CI container) must let the shard
      // that actually holds work run.
      std::this_thread::yield();
    }
  }
}

void ShardedDataPlane::start_packet(std::size_t me, std::uint32_t pi) {
  sden::RouteResult& res = results_[pi];
  const sden::SwitchId ingress = ingresses_[pi];
  if (round_faults_ != nullptr && round_faults_->switch_is_down(ingress)) {
    res.fail(sden::route_errors::ingress_down(ingress));
    complete(me, pi);
    return;
  }
  const std::uint32_t cur = static_cast<std::uint32_t>(ingress);
  res.switch_path.push_back(cur);
  walk(me, pi, cur);
}

void ShardedDataPlane::walk(std::size_t me, std::uint32_t pi,
                            std::uint32_t cur) {
  Shard& sh = *shards_[me];
  const sden::RoutePlan& plan = sh.plan;
  sden::Packet& pkt = lane_pkts_[pi];
  sden::RouteResult& res = results_[pi];

  for (;;) {
    if (steps_left_[pi] == 0) {
      res.fail(sden::route_errors::hop_bound());
      complete(me, pi);
      return;
    }
    --steps_left_[pi];

    const sden::PlanStep st = sden::plan_step(plan, cur, pkt, round_faults_);
    switch (st.kind) {
      case sden::PlanStep::Kind::kHop: {
        if (round_faults_ != nullptr) {
          Status hop = sden::route_errors::check_traversal(
              *round_faults_, cur, st.next, salts_[pi]);
          if (!hop.ok()) {
            res.fail(std::move(hop));
            complete(me, pi);
            return;
          }
        }
        res.path_cost += st.weight;
        cur = st.next;
        res.switch_path.push_back(cur);
        const std::uint32_t own = owner_[cur];
        if (own != me) {
          ++sh.handoffs_out;
          handoff(me, own, Handoff{pi, cur});
          return;  // lane ownership moves with the continuation
        }
        ++sh.local_hops;
        break;
      }
      case sden::PlanStep::Kind::kDeliver: {
        const double* const base = plan.hot.data() + plan.offset[cur];
        Status delivered = net_.deliver_compiled(plan, base, pkt, cur, res);
        if (!delivered.ok()) res.fail(std::move(delivered));
        complete(me, pi);
        return;
      }
      case sden::PlanStep::Kind::kNoRelay:
        res.fail(sden::route_errors::no_relay(cur));
        complete(me, pi);
        return;
      case sden::PlanStep::Kind::kNonDtTransit:
        res.fail(sden::route_errors::non_dt_transit(cur));
        complete(me, pi);
        return;
      case sden::PlanStep::Kind::kMissingLink:
        res.fail(sden::route_errors::missing_link(cur, st.next));
        complete(me, pi);
        return;
    }
  }
}

void ShardedDataPlane::complete(std::size_t me, std::uint32_t pi) {
  if (open_loop_ && latencies_s_ != nullptr) {
    latencies_s_[pi] = (now_s() - t0_s_) - arrival_s_[pi];
  }
  // relaxed: a monotonic completion tally; all_done only needs each
  // counter's own modification order (and result-lane writes are
  // ordered by the handoff rings, not by this counter).
  shards_[me]->completed.fetch_add(1, std::memory_order_relaxed);
}

void ShardedDataPlane::handoff(std::size_t me, std::uint32_t dest,
                               Handoff h) {
  if (!ring(me, dest).push(h)) {
    // Never block, never drop: park in the fixed-capacity overflow
    // buffer and retry at the top of the poll loop. Cross-packet
    // reordering against ring occupants is harmless — lanes are
    // independent.
    Shard& sh = *shards_[me];
    sh.overflow[dest].push(h);
    ++sh.spills;
  }
}

bool ShardedDataPlane::flush_overflow(std::size_t me) {
  Shard& sh = *shards_[me];
  bool any = false;
  for (std::size_t dest = 0; dest < sh.overflow.size(); ++dest) {
    OverflowBuffer<Handoff>& v = sh.overflow[dest];
    if (v.empty()) continue;
    const std::size_t pushed =
        ring(me, dest).push_batch(v.data(), v.pending());
    v.consume(pushed);
    any |= pushed != 0;
  }
  return any;
}

bool ShardedDataPlane::all_done() const {
  std::size_t done = 0;
  for (const std::unique_ptr<Shard>& sh : shards_) {
    // relaxed: see complete().
    done += sh->completed.load(std::memory_order_relaxed);
  }
  return done >= round_target_;
}

RoundStats ShardedDataPlane::last_round_stats() const {
  RoundStats out;
  out.completed_per_shard.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& sh : shards_) {
    out.local_hops += sh->local_hops;
    out.cross_handoffs += sh->handoffs_out;
    out.overflow_spills += sh->spills;
    // relaxed: read after the round joined; the join ordered the writes.
    out.completed_per_shard.push_back(
        sh->completed.load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace gred::shard

// Explicit instantiation: the runtime drains rings with pop_batch, so
// the single-item pop() would otherwise never be instantiated in any
// src/ TU and the hot-path closure over its GRED_HOT_PATH marker
// (tools/hotpath_check.py) would be vacuous. Instantiating the whole
// class keeps every ring member in the analyzed call graph.
template class gred::SpscRing<gred::shard::Handoff>;
