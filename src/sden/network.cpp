#include "sden/network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/mutex.hpp"
#include "geometry/argmin.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/switch_load.hpp"
#include "obs/trace.hpp"
#include "sden/plan_walk.hpp"
#include "sden/route_errors.hpp"

namespace gred::sden {

namespace {
constexpr double kMissingLink = std::numeric_limits<double>::quiet_NaN();

/// Metric references route() records into, resolved once. Looking them
/// up involves registry locks, allocation, and static-init guards, so
/// the lookup sits behind a cold boundary and the hot recording path
/// only ever touches the returned cached references.
struct RouteMetrics {
  obs::Counter& packets;
  obs::Counter& drops;
  obs::Histogram& hops;
  obs::RouteTraceRing& ring;
};

// cold: one registry lookup (locks + may allocate) per process; every
// later call is a guarded static read, off the per-packet closure.
GRED_COLD_PATH const RouteMetrics& route_metrics() {
  static RouteMetrics m{obs::registry().counter("sden.packets_routed"),
                        obs::registry().counter("sden.packets_dropped"),
                        obs::registry().histogram("sden.route_hops"),
                        obs::route_trace()};
  return m;
}

/// Per-packet observability hook for route(). Decided once at entry
/// (a single relaxed load); when off, construction and destruction
/// are a stored bool and one branch — the steady state stays
/// allocation-free either way, since ring writes and counter bumps
/// never allocate and the metric references are cached behind
/// route_metrics().
class RouteTraceGuard {
 public:
  RouteTraceGuard(const Packet& pkt, const RouteResult& result,
                  SwitchId ingress)
      : active_(obs::enabled()),
        pkt_(pkt),
        result_(result),
        ingress_(ingress) {}

  GRED_HOT_PATH ~RouteTraceGuard() {
    if (!active_) return;
    const RouteMetrics& m = route_metrics();
    m.packets.add();
    if (!result_.status.ok()) m.drops.add();
    m.hops.record(static_cast<double>(result_.hop_count()));

    obs::RouteTraceSample s;
    s.ingress = static_cast<std::uint32_t>(ingress_);
    s.egress = result_.switch_path.empty()
                   ? s.ingress
                   : static_cast<std::uint32_t>(result_.switch_path.back());
    s.hops = static_cast<std::uint32_t>(result_.hop_count());
    s.type = static_cast<std::uint8_t>(pkt_.type);
    s.found = result_.found;
    s.ok = result_.status.ok();
    s.path_cost = result_.path_cost;
    m.ring.record(s);
  }

  RouteTraceGuard(const RouteTraceGuard&) = delete;
  RouteTraceGuard& operator=(const RouteTraceGuard&) = delete;

 private:
  const bool active_;
  const Packet& pkt_;
  const RouteResult& result_;
  const SwitchId ingress_;
};

/// A placement's storage write at one delivery target. The last target
/// takes the payload by move; a placement only ever has one target
/// today, so this is the common case.
// cold: a storage write, which may grow the server's slot table (and
// copies the payload for any target but the last); reads and removals,
// the steady state, never store.
GRED_COLD_PATH Status store_payload(ServerNode& node, Packet& pkt,
                                    bool last) {
  return node.store(pkt.data_id,
                    last ? std::move(pkt.payload) : pkt.payload);
}

}  // namespace

SdenNetwork::SdenNetwork(topology::EdgeNetwork description)
    : description_(std::move(description)),
      plan_(std::make_unique<PlanState>()) {
  switches_.reserve(description_.switch_count());
  for (SwitchId id = 0; id < description_.switch_count(); ++id) {
    switches_.emplace_back(id);
  }
  servers_.reserve(description_.server_count());
  for (const topology::EdgeServer& s : description_.all_servers()) {
    servers_.emplace_back(s);
  }
  // Greedy walks run close to the physical diameter (O(log n) on the
  // Waxman substrates) plus virtual-link detours; 8*log2(n)+8 leaves
  // ample slack without over-reserving on small testbeds.
  const std::size_t n = switches_.empty() ? 1 : switches_.size();
  path_reserve_hint_ =
      8 * static_cast<std::size_t>(std::bit_width(n)) + 8;
}

RouteResult SdenNetwork::inject(Packet pkt, SwitchId ingress) {
  RouteResult result;
  route(pkt, ingress, result);
  return result;
}

void SdenNetwork::route(Packet& pkt, SwitchId ingress, RouteResult& result) {
  result.reset();
  // Route-trace hook: samples the finished RouteResult at every return
  // path below, including the compiled fast-path delivery.
  const RouteTraceGuard trace(pkt, result, ingress);
  if (ingress >= switches_.size()) {
    result.status = route_errors::bad_ingress();
    return;
  }

  // The walk runs entirely over the compiled plan: a hop is one random
  // jump into the hot array (header, candidate position columns, and
  // forwarding actions contiguous per switch), and every link weight
  // (and link-existence check) was precompiled into the chosen
  // candidate/relay, so no Switch, FlowTable, or Graph memory is
  // touched until delivery. The per-iteration logic lives in
  // plan_step (sden/plan_walk.hpp), shared with the sharded runtime.
  const RoutePlan& plan = ensure_plan();

  // Injected physical faults: null in normal operation, so the healthy
  // steady state pays one predicted branch per traversal. The salt is
  // derived once per packet (both routers derive the same value).
  const FaultState* const faults =
      (faults_ != nullptr && faults_->any()) ? faults_ : nullptr;
  const std::uint64_t salt =
      faults != nullptr ? fault_packet_salt(pkt) : 0;
  if (faults != nullptr && faults->switch_is_down(ingress)) {
    result.fail(route_errors::ingress_down(ingress));
    return;
  }

  std::uint32_t cur = static_cast<std::uint32_t>(ingress);
  result.switch_path.reserve(path_reserve_hint_);
  result.switch_path.push_back(cur);

  // A greedy walk strictly decreases distance-to-target and each
  // virtual link is a simple path, so 4n + 16 hops is a generous bound;
  // exceeding it means a forwarding-table bug.
  const std::size_t max_hops = max_route_hops();
  for (std::size_t step = 0; step < max_hops; ++step) {
    const PlanStep st = plan_step(plan, cur, pkt, faults);
    switch (st.kind) {
      case PlanStep::Kind::kHop:
        if (faults != nullptr) {
          Status hop =
              route_errors::check_traversal(*faults, cur, st.next, salt);
          if (!hop.ok()) {
            result.fail(std::move(hop));
            return;
          }
        }
        result.path_cost += st.weight;
        cur = st.next;
        result.switch_path.push_back(cur);
        break;
      case PlanStep::Kind::kDeliver: {
        // No neighbor is closer: this switch owns the data.
        const double* const base = plan.hot.data() + plan.offset[cur];
        Status delivered = deliver_compiled(plan, base, pkt, cur, result);
        if (!delivered.ok()) {
          result.fail(std::move(delivered));
        }
        return;
      }
      case PlanStep::Kind::kNoRelay:
        result.fail(route_errors::no_relay(cur));
        return;
      case PlanStep::Kind::kNonDtTransit:
        result.fail(route_errors::non_dt_transit(cur));
        return;
      case PlanStep::Kind::kMissingLink:
        result.fail(route_errors::missing_link(cur, st.next));
        return;
    }
  }
  result.fail(route_errors::hop_bound());
}

Status SdenNetwork::deliver_compiled(const RoutePlan& plan, const double* base,
                                     Packet& pkt, std::uint32_t terminal,
                                     RouteResult& result) {
  const std::uint32_t flags = plan_lo(base[3]);
  if ((flags & kPlanFlagDeliverFallback) != 0) {
    // Range-extension rewrites are installed here: the switch's own
    // server stage resolves the rewrite targets.
    const Decision decision = switches_[terminal].deliver(pkt);
    if (decision.kind == Decision::Kind::kDrop) {
      return route_errors::pipeline_drop(terminal, decision.drop_code,
                                         decision.drop_reason);
    }
    return deliver(decision.targets, pkt, terminal, result);
  }

  const std::uint32_t server_count = plan_hi(base[3]);
  if (server_count == 0) {
    return route_errors::no_servers(terminal);
  }
  // Section V-B: serial number H(d) mod s. The cached digest (filled in
  // by the sender) goes straight through digest_mod — no SHA-256 and no
  // DataKey position derivation on the fast path.
  const std::size_t idx = static_cast<std::size_t>(
      pkt.has_key_digest ? crypto::digest_mod(pkt.key_digest, server_count)
                         : pkt.derive_key().mod(server_count));
  Decision::TargetList targets;
  targets.push_back({plan.servers[plan_lo(base[2]) + idx], terminal});
  return deliver(targets, pkt, terminal, result);
}

Status SdenNetwork::deliver(const Decision::TargetList& targets, Packet& pkt,
                            SwitchId terminal, RouteResult& result) {
  // A write invalidates its own key's cached answers, whichever router
  // delivered it (before any target: a partial delivery still wrote).
  if (hot_cache_ && pkt.type != PacketType::kRetrieval) {
    hot_cache_->invalidate_id(pkt.has_key_digest
                                  ? pkt.key_digest
                                  : pkt.derive_key().digest());
  }
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const Decision::DeliveryTarget& target = targets[t];
    if (target.server >= servers_.size()) {
      return route_errors::unknown_server();
    }
    // A cross-switch delivery (range extension) must use a physical
    // link from the terminal switch (the paper's port p5 to switch 2).
    if (target.via != terminal) {
      const graph::EdgeTo* edge =
          description_.switches().find_edge(terminal, target.via);
      if (edge == nullptr) {
        return route_errors::handoff_missing_link();
      }
      if (faults_ != nullptr && faults_->any()) {
        Status hop = route_errors::check_traversal(
            *faults_, terminal, target.via, fault_packet_salt(pkt));
        if (!hop.ok()) return hop;
      }
      result.path_cost += edge->weight;
      result.switch_path.push_back(target.via);
    }
    result.delivered_to.push_back(target.server);

    ServerNode& node = servers_[target.server];
    if (pkt.type == PacketType::kPlacement) {
      Status stored = store_payload(node, pkt, t + 1 == targets.size());
      if (!stored.ok()) return stored;
    } else if (pkt.type == PacketType::kRetrieval) {
      if (const std::string* payload = node.find(pkt.data_id)) {
        result.found = true;
        result.responder = target.server;
        // assign() reuses the scratch string's capacity.
        result.payload.assign(*payload);
        node.note_retrieval();
      }
    } else {  // kRemoval
      if (node.erase(pkt.data_id)) {
        result.found = true;
        result.responder = target.server;
      }
    }
  }
  return Status::Ok();
}

const RoutePlan& SdenNetwork::ensure_plan() {
  // acquire: a clean flag read here pairs with sync_plan_slow's
  // release store, publishing the synced plan to this router.
  if (plan_->dirty.load(std::memory_order_acquire)) {
    sync_plan_slow();
  }
  return plan_->plan;
}

void SdenNetwork::sync_plan_slow() {
  PlanState& state = *plan_;
  // First router after a change syncs; concurrent routers wait on the
  // mutex and then read the fresh plan. (Mutating the network while
  // packets are in flight was never supported; this only coordinates
  // the sync itself.)
  MutexLock lock(state.rebuild_mutex);
  // relaxed: the mutex orders this re-check against the previous
  // holder's store; only the flag value matters here.
  if (state.dirty.load(std::memory_order_relaxed)) {
    // The whole-network plan is the subset plan that owns every switch.
    std::vector<std::uint32_t> all(switches_.size());
    std::iota(all.begin(), all.end(), std::uint32_t{0});
    sync_plan(state.plan, all);
    // release: publishes the synced plan to lock-free readers that
    // acquire dirty==false in ensure_plan.
    state.dirty.store(false, std::memory_order_release);
  }
}

void SdenNetwork::sync_plan(RoutePlan& plan,
                            const std::vector<std::uint32_t>& owned) const {
  if (plan_stale(plan)) compile_plan_subset(plan, owned.data(), owned.size());
}

void SdenNetwork::compile_plan_subset(RoutePlan& plan,
                                      const std::uint32_t* owned,
                                      std::size_t count) const {
  const graph::Graph& links = description_.switches();
  plan.clear();
  plan.offset.assign(switches_.size(), kPlanNoRegion);

  // The relay array first: every switch's relay entries in install
  // order, whatever `owned` says, so each plan of this network holds
  // the same entries at the same indices. A link names the entry the
  // switch matches toward a destination, FlowTable::find_relay's
  // first-installed one; later entries for the same destination are
  // compiled but never linked to.
  std::vector<std::uint32_t> first_relay(switches_.size());
  std::uint32_t relay_count = 0;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    first_relay[i] = relay_count;
    relay_count +=
        static_cast<std::uint32_t>(switches_[i].table().relays().size());
  }
  const auto link_of = [&](SwitchId at, SwitchId dest) {
    if (at >= switches_.size()) return kNoRelayLink;
    const FlowTable& table = switches_[at].table();
    const RelayEntry* r = table.find_relay(dest);
    return r == nullptr ? kNoRelayLink
                        : first_relay[at] + static_cast<std::uint32_t>(
                                                r - table.relays().data());
  };
  plan.relays.reserve(relay_count);
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    for (const RelayEntry& r : switches_[i].table().relays()) {
      const graph::EdgeTo* edge =
          r.succ < switches_.size() ? links.find_edge(i, r.succ) : nullptr;
      plan.relays.push_back(
          PlanRelay{static_cast<std::uint32_t>(r.succ), link_of(r.succ, r.dest),
                    edge != nullptr ? edge->weight : kMissingLink});
    }
  }

  // Blob size up front: header words plus the candidate columns, for
  // every owned switch, each region rounded up to a cache line, plus
  // the vector argmin's tail padding.
  std::size_t words = geometry::kArgminBlock;
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t k = switches_[owned[j]].table().neighbors().size();
    words += (kPlanHeaderWords + kPlanColumns * k + 7) & ~std::size_t{7};
  }
  plan.hot.reserve(words);

  std::vector<std::uint32_t> perm;
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t i = owned[j];
    const Switch& sw = switches_[i];
    const FlowTable& table = sw.table();
    const std::size_t k = table.neighbors().size();

    // Cache-line-aligned region start (the vector data itself is
    // 16-byte aligned at worst; 64-byte relative alignment still keeps
    // the header plus first column words on the minimum line count).
    const std::size_t region = (plan.hot.size() + 7) & ~std::size_t{7};
    plan.hot.resize(region + kPlanHeaderWords + kPlanColumns * k);
    plan.offset[i] = static_cast<std::uint32_t>(region);

    const std::uint32_t server_begin =
        static_cast<std::uint32_t>(plan.servers.size());
    for (ServerId s : sw.local_servers()) {
      plan.servers.push_back(static_cast<std::uint32_t>(s));
    }
    std::uint32_t flags = 0;
    if (sw.dt_participant()) flags |= kPlanFlagDt;
    if (!table.rewrites().empty()) flags |= kPlanFlagDeliverFallback;
    double* const base = plan.hot.data() + region;
    base[0] = sw.position().x;
    base[1] = sw.position().y;
    base[2] = plan_pack(static_cast<std::uint32_t>(k), server_begin);
    base[3] = plan_pack(static_cast<std::uint32_t>(sw.local_servers().size()),
                        flags);

    // The columns are emitted in lex-position order so the route-time
    // argmin's first-minimum-wins rule reproduces the closer_to lex
    // tie-break without a second pass. (Entry order never affects the
    // winner when positions are distinct, which CVT sites are.)
    perm.resize(k);
    for (std::size_t c = 0; c < k; ++c) {
      perm[c] = static_cast<std::uint32_t>(c);
    }
    std::sort(perm.begin(), perm.end(),
              [&table](std::uint32_t a, std::uint32_t b) {
                const geometry::Point2D& pa = table.neighbors()[a].position;
                const geometry::Point2D& pb = table.neighbors()[b].position;
                return pa.x != pb.x ? pa.x < pb.x : pa.y < pb.y;
              });

    double* const xs = base + kPlanHeaderWords;
    double* const ys = xs + k;
    double* const acts = ys + k;
    double* const weights = acts + k;
    double* const relay_links = weights + k;
    for (std::size_t c = 0; c < k; ++c) {
      const NeighborEntry& ne = table.neighbors()[perm[c]];
      xs[c] = ne.position.x;
      ys[c] = ne.position.y;
      const SwitchId next = ne.physical ? ne.neighbor : ne.first_hop;
      const std::uint32_t vlink_dest =
          ne.physical ? kNoPlanSwitch : static_cast<std::uint32_t>(ne.neighbor);
      acts[c] = plan_pack(static_cast<std::uint32_t>(next), vlink_dest);
      const graph::EdgeTo* edge =
          next < switches_.size() ? links.find_edge(i, next) : nullptr;
      weights[c] = edge != nullptr ? edge->weight : kMissingLink;
      relay_links[c] = plan_pack(
          0, ne.physical ? kNoRelayLink : link_of(next, ne.neighbor));
    }
  }
  plan.hot.resize(plan.hot.size() + geometry::kArgminBlock);
  plan.synced = changes_;
}

std::vector<std::size_t> SdenNetwork::server_loads() const {
  std::vector<std::size_t> loads;
  loads.reserve(servers_.size());
  for (const ServerNode& s : servers_) loads.push_back(s.item_count());
  return loads;
}

std::vector<std::size_t> SdenNetwork::table_entry_counts() const {
  std::vector<std::size_t> counts;
  counts.reserve(switches_.size());
  for (const Switch& sw : switches_) {
    counts.push_back(sw.table().entry_count());
  }
  return counts;
}

Result<SwitchId> SdenNetwork::add_switch(
    const std::vector<SwitchId>& links) {
  for (SwitchId v : links) {
    if (v >= switches_.size()) {
      return Error(ErrorCode::kOutOfRange,
                   "add_switch: link target out of range");
    }
  }
  const SwitchId id = description_.add_switch();
  switches_.emplace_back(id);
  note_change();
  if (hot_cache_) hot_cache_->ensure_switches(switches_.size());
  // Grow the load tracker too: record() silently ignores ids beyond
  // its size, so without this a post-join switch would be invisible
  // to extend_for_load no matter how hot it runs.
  if (load_tracker_) load_tracker_->ensure_switches(switches_.size());
  for (SwitchId v : links) {
    const Status s = add_link(id, v);
    if (!s.ok()) return s.error();
  }
  return id;
}

Result<ServerId> SdenNetwork::attach_server(SwitchId sw,
                                            std::size_t capacity) {
  auto id = description_.attach_server(sw, capacity);
  if (!id.ok()) return id.error();
  servers_.emplace_back(description_.server(id.value()));
  note_change();
  return id.value();
}

void SdenNetwork::remove_switch_links(SwitchId sw) {
  if (sw >= switches_.size()) return;
  note_change();
  description_.mutable_switches().remove_edges_of(sw);
  description_.detach_servers(sw);
  switches_[sw].reset();
}

Status SdenNetwork::add_link(SwitchId a, SwitchId b, double weight) {
  const Status added = description_.mutable_switches().add_edge(a, b, weight);
  if (!added.ok()) return added;
  note_change();
  return Status::Ok();
}

bool SdenNetwork::remove_link(SwitchId a, SwitchId b) {
  if (!description_.mutable_switches().remove_edge(a, b)) return false;
  note_change();
  return true;
}

void SdenNetwork::restore_topology(topology::EdgeNetwork description) {
  description_ = std::move(description);
  const std::size_t switch_count = description_.switch_count();
  const std::size_t server_count = description_.server_count();
  if (switches_.size() > switch_count) {
    switches_.erase(switches_.begin() +
                        static_cast<std::ptrdiff_t>(switch_count),
                    switches_.end());
  }
  if (servers_.size() > server_count) {
    servers_.erase(servers_.begin() +
                       static_cast<std::ptrdiff_t>(server_count),
                   servers_.end());
  }
  note_change();
}

Status SdenNetwork::store_item(ServerId sid, const std::string& id,
                               std::string payload) {
  if (hot_cache_) hot_cache_->invalidate_id(crypto::DataKey(id).digest());
  return servers_[sid].store(id, std::move(payload));
}

bool SdenNetwork::erase_item(ServerId sid, const std::string& id) {
  if (hot_cache_) hot_cache_->invalidate_id(crypto::DataKey(id).digest());
  return servers_[sid].erase(id);
}

HotKeyCache& SdenNetwork::enable_hot_key_cache(std::size_t ways) {
  if (!hot_cache_ || hot_cache_->ways() != ways) {
    hot_cache_ = std::make_unique<HotKeyCache>(switches_.size(), ways);
  } else {
    hot_cache_->ensure_switches(switches_.size());
    hot_cache_->set_enabled(true);
  }
  return *hot_cache_;
}

}  // namespace gred::sden
