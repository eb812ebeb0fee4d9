#include "core/multihop_dt.hpp"

#include <algorithm>

#include "obs/phase_timer.hpp"

namespace gred::core {
namespace {

using RelayVec = std::vector<sden::RelayEntry>;

/// Position of (sour, dest) in a relay vector kept sorted by that key.
/// Each virtual link visits an intermediate at most once, so the key is
/// unique within a vector.
RelayVec::iterator relay_lower_bound(RelayVec& v, topology::SwitchId sour,
                                     topology::SwitchId dest) {
  return std::lower_bound(
      v.begin(), v.end(), std::make_pair(sour, dest),
      [](const sden::RelayEntry& e,
         const std::pair<topology::SwitchId, topology::SwitchId>& key) {
        return std::make_pair(e.sour, e.dest) < key;
      });
}

}  // namespace

Status MultiHopDT::build_candidates_for(
    std::size_t i, const graph::Graph& physical, const graph::ApspResult& apsp,
    std::vector<topology::SwitchId>* touched) {
  const topology::SwitchId u = participants_[i];
  const std::vector<geometry::Point2D>& positions = dt_.points();
  candidates_[i].clear();

  // All DT neighbors of u; physical adjacency decides direct vs
  // multi-hop. Physical neighbors that are NOT DT neighbors are added
  // too when they participate in the DT (Algorithm 2 compares both
  // neighbor kinds).
  std::vector<bool> added(participants_.size(), false);
  for (std::size_t j : dt_.neighbors(i)) {
    const topology::SwitchId v = participants_[j];
    DtNeighborInfo info;
    info.neighbor = v;
    info.position = positions[j];
    info.physical = physical.has_edge(u, v);
    if (info.physical) {
      info.first_hop = v;
      info.path_length = 1;
    } else {
      std::vector<graph::NodeId> path = apsp.path(u, v, physical);
      if (path.size() < 2) {
        return Status(ErrorCode::kFailedPrecondition,
                      "MultiHopDT: DT neighbors " + std::to_string(u) +
                          " and " + std::to_string(v) +
                          " are physically disconnected");
      }
      info.first_hop = path[1];
      info.path_length = path.size() - 1;
      // Relay tuples at every intermediate switch of the virtual link
      // u -> v, inserted at their (sour, dest)-sorted slot. (The
      // reverse direction is installed when the DT edge is visited
      // from v's side.)
      for (std::size_t k = 1; k + 1 < path.size(); ++k) {
        sden::RelayEntry relay;
        relay.sour = u;
        relay.pred = path[k - 1];
        relay.succ = path[k + 1];
        relay.dest = v;
        RelayVec& vec = relays_[path[k]];
        vec.insert(relay_lower_bound(vec, u, v), relay);
        if (touched != nullptr) touched->push_back(path[k]);
      }
      vlink_paths_[{u, v}] = std::move(path);
    }
    candidates_[i].push_back(info);
    added[j] = true;
  }

  // Physical neighbors that participate in the DT but are not DT
  // neighbors of u.
  for (const graph::EdgeTo& e : physical.neighbors(u)) {
    const auto it = index_.find(e.to);
    if (it == index_.end() || added[it->second]) continue;
    DtNeighborInfo info;
    info.neighbor = e.to;
    info.position = positions[it->second];
    info.physical = true;
    info.first_hop = e.to;
    info.path_length = 1;
    candidates_[i].push_back(info);
    added[it->second] = true;
  }
  return Status::Ok();
}

Result<MultiHopDT> MultiHopDT::build(
    const std::vector<topology::SwitchId>& participants,
    const std::vector<geometry::Point2D>& positions,
    const graph::Graph& physical, const graph::ApspResult& apsp) {
  const obs::ScopedPhaseTimer timer("dt_build");
  if (participants.size() != positions.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "MultiHopDT: participants/positions size mismatch");
  }

  MultiHopDT out;
  out.participants_ = participants;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    out.index_[participants[i]] = i;
  }

  auto dt = geometry::DelaunayTriangulation::build(positions);
  if (!dt.ok()) return dt.error();
  out.dt_ = std::move(dt).value();

  out.candidates_.assign(participants.size(), {});
  for (std::size_t i = 0; i < participants.size(); ++i) {
    const Status s = out.build_candidates_for(i, physical, apsp, nullptr);
    if (!s.ok()) return s.error();
  }
  return out;
}

const std::vector<DtNeighborInfo>& MultiHopDT::candidates_of(
    topology::SwitchId sw) const {
  static const std::vector<DtNeighborInfo> kEmpty;
  const auto it = index_.find(sw);
  if (it == index_.end()) return kEmpty;
  return candidates_[it->second];
}

double MultiHopDT::mean_vlink_length() const {
  std::size_t total = 0;
  std::size_t count = 0;
  for (const auto& list : candidates_) {
    for (const DtNeighborInfo& info : list) {
      if (!info.physical) {
        total += info.path_length;
        ++count;
      }
    }
  }
  if (count == 0) return 0.0;
  return static_cast<double>(total) / static_cast<double>(count);
}

void MultiHopDT::drop_vlinks_of(topology::SwitchId u,
                                std::vector<topology::SwitchId>* touched) {
  auto it = vlink_paths_.lower_bound({u, 0});
  while (it != vlink_paths_.end() && it->first.first == u) {
    const topology::SwitchId dest = it->first.second;
    const std::vector<graph::NodeId>& path = it->second;
    for (std::size_t k = 1; k + 1 < path.size(); ++k) {
      const auto rit = relays_.find(path[k]);
      if (rit != relays_.end()) {
        const auto pos = relay_lower_bound(rit->second, u, dest);
        if (pos != rit->second.end() && pos->sour == u && pos->dest == dest) {
          rit->second.erase(pos);
        }
        // Keep the relay map's key set identical to what a fresh build
        // produces: it never creates empty vectors.
        if (rit->second.empty()) relays_.erase(rit);
      }
      if (touched != nullptr) touched->push_back(path[k]);
    }
    it = vlink_paths_.erase(it);
  }
}

Status MultiHopDT::rebuild_participant(
    std::size_t i, const graph::Graph& physical, const graph::ApspResult& apsp,
    std::vector<topology::SwitchId>* touched) {
  if (i >= participants_.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "MultiHopDT::rebuild_participant: index out of range");
  }
  drop_vlinks_of(participants_[i], touched);
  if (touched != nullptr) touched->push_back(participants_[i]);
  return build_candidates_for(i, physical, apsp, touched);
}

Status MultiHopDT::add_participant(
    topology::SwitchId sw, const geometry::Point2D& position,
    const graph::Graph& physical, const graph::ApspResult& apsp,
    std::vector<std::size_t>* affected,
    std::vector<topology::SwitchId>* touched_switches) {
  if (affected != nullptr) affected->clear();
  if (index_.count(sw) != 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "MultiHopDT::add_participant: switch " + std::to_string(sw) +
                      " already participates");
  }

  std::vector<std::size_t> repaired;
  auto inserted = dt_.insert(position, &repaired);
  if (!inserted.ok()) return inserted.error();
  const std::size_t idx = inserted.value();

  participants_.push_back(sw);
  index_[sw] = idx;
  candidates_.emplace_back();
  for (const std::size_t i : repaired) {
    const Status s = rebuild_participant(i, physical, apsp, touched_switches);
    if (!s.ok()) return s;
  }
  if (affected != nullptr) *affected = std::move(repaired);
  return Status::Ok();
}

Status MultiHopDT::remove_participant(
    topology::SwitchId sw, const graph::Graph& physical,
    const graph::ApspResult& apsp, std::vector<std::size_t>* affected,
    std::vector<topology::SwitchId>* touched_switches) {
  if (affected != nullptr) affected->clear();
  const auto it = index_.find(sw);
  if (it == index_.end()) {
    return Status(ErrorCode::kNotFound,
                  "MultiHopDT::remove_participant: switch " +
                      std::to_string(sw) + " does not participate");
  }
  const std::size_t idx = it->second;

  // Drop the leaver's own virtual links first; the rim participants
  // (whose links ended at sw) are rebuilt below and drop theirs then.
  drop_vlinks_of(sw, touched_switches);
  if (touched_switches != nullptr) touched_switches->push_back(sw);

  std::vector<std::size_t> repaired;
  const Status removed = dt_.remove(idx, &repaired);
  if (!removed.ok()) return removed;

  participants_.erase(participants_.begin() +
                      static_cast<std::ptrdiff_t>(idx));
  candidates_.erase(candidates_.begin() + static_cast<std::ptrdiff_t>(idx));
  index_.clear();
  for (std::size_t i = 0; i < participants_.size(); ++i) {
    index_[participants_[i]] = i;
  }

  for (const std::size_t i : repaired) {
    const Status s = rebuild_participant(i, physical, apsp, touched_switches);
    if (!s.ok()) return s;
  }
  if (affected != nullptr) *affected = std::move(repaired);
  return Status::Ok();
}

std::vector<std::size_t> MultiHopDT::participants_with_vlinks_through(
    const std::vector<topology::SwitchId>& nodes) const {
  std::vector<std::size_t> out;
  for (const auto& [pair, path] : vlink_paths_) {
    for (const graph::NodeId hop : path) {
      if (std::find(nodes.begin(), nodes.end(),
                    static_cast<topology::SwitchId>(hop)) == nodes.end()) {
        continue;
      }
      const auto it = index_.find(pair.first);
      if (it != index_.end()) out.push_back(it->second);
      break;
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace gred::core
