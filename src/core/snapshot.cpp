#include "core/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/strings.hpp"

namespace gred::core {

namespace {
constexpr const char* kMagic = "gred-snapshot v1";
}  // namespace

Result<Snapshot> capture_snapshot(const Controller& controller,
                                  const sden::SdenNetwork& net) {
  if (!controller.initialized()) {
    return Error(ErrorCode::kFailedPrecondition,
                 "capture_snapshot: controller not initialized");
  }
  Snapshot s;
  s.participants = controller.space().participants();
  s.positions = controller.space().positions();
  for (topology::SwitchId sw = 0; sw < net.switch_count(); ++sw) {
    for (const sden::RewriteEntry& rw : net.switch_at(sw).table().rewrites()) {
      s.rewrites.emplace_back(sw, rw);
    }
  }
  return s;
}

std::string serialize_snapshot(const Snapshot& snapshot) {
  std::ostringstream os;
  os << kMagic << "\n" << snapshot.participants.size() << "\n";
  char buf[96];
  for (std::size_t i = 0; i < snapshot.participants.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%zu %.17g %.17g\n",
                  snapshot.participants[i], snapshot.positions[i].x,
                  snapshot.positions[i].y);
    os << buf;
  }
  if (!snapshot.rewrites.empty()) {
    os << "rewrites " << snapshot.rewrites.size() << "\n";
    for (const auto& [sw, rw] : snapshot.rewrites) {
      std::snprintf(buf, sizeof(buf), "%zu %zu %zu %zu\n", sw,
                    rw.original, rw.replacement, rw.via_switch);
      os << buf;
    }
  }
  return os.str();
}

Result<Snapshot> parse_snapshot(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || trim(line) != kMagic) {
    return Error(ErrorCode::kInvalidArgument,
                 "parse_snapshot: bad or missing header");
  }
  std::size_t count = 0;
  if (!(in >> count)) {
    return Error(ErrorCode::kInvalidArgument,
                 "parse_snapshot: missing participant count");
  }
  Snapshot s;
  // Reserve from the declared count only up to a sane bound: a
  // hostile header must not size an allocation (the loop below grows
  // the vectors naturally and fails on truncated input anyway).
  constexpr std::size_t kReserveCap = 4096;
  s.participants.reserve(std::min(count, kReserveCap));
  s.positions.reserve(std::min(count, kReserveCap));
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t sw = 0;
    double x = 0.0, y = 0.0;
    if (!(in >> sw >> x >> y)) {
      return Error(ErrorCode::kInvalidArgument,
                   "parse_snapshot: truncated at entry " +
                       std::to_string(i));
    }
    s.participants.push_back(sw);
    s.positions.push_back({x, y});
  }
  // Optional trailing rewrites section (absent in pre-extension
  // snapshots and for extension-free networks).
  std::string tag;
  if (in >> tag) {
    if (tag != "rewrites") {
      return Error(ErrorCode::kInvalidArgument,
                   "parse_snapshot: unexpected trailing token '" + tag + "'");
    }
    std::size_t rewrite_count = 0;
    if (!(in >> rewrite_count)) {
      return Error(ErrorCode::kInvalidArgument,
                   "parse_snapshot: missing rewrite count");
    }
    s.rewrites.reserve(std::min(rewrite_count, kReserveCap));
    for (std::size_t i = 0; i < rewrite_count; ++i) {
      std::size_t sw = 0;
      sden::RewriteEntry rw;
      if (!(in >> sw >> rw.original >> rw.replacement >> rw.via_switch)) {
        return Error(ErrorCode::kInvalidArgument,
                     "parse_snapshot: truncated at rewrite " +
                         std::to_string(i));
      }
      s.rewrites.emplace_back(sw, rw);
    }
  }
  return s;
}

Status restore_snapshot(Controller& controller, sden::SdenNetwork& net,
                        const Snapshot& snapshot) {
  const Status init = controller.initialize_with_positions(
      net, snapshot.participants, snapshot.positions);
  if (!init.ok()) return init;
  // Re-install the captured range extensions after the flow tables
  // exist. Validate against this network: a snapshot is text from
  // outside and must not install a rewrite the topology can't serve.
  for (const auto& [sw, rw] : snapshot.rewrites) {
    if (sw >= net.switch_count() || rw.via_switch >= net.switch_count() ||
        rw.original >= net.server_count() ||
        rw.replacement >= net.server_count()) {
      return Status(ErrorCode::kInvalidArgument,
                    "restore_snapshot: rewrite references unknown ids");
    }
    if (net.description().switches().find_edge(sw, rw.via_switch) ==
        nullptr) {
      return Status(ErrorCode::kInvalidArgument,
                    "restore_snapshot: rewrite handoff link missing");
    }
    sden::FlowTable& table = net.switch_at(sw).table();
    if (table.find_rewrite(rw.original) != nullptr) {
      table.remove_rewrite(rw.original);  // snapshot wins over live state
    }
    table.add_rewrite(rw);
  }
  // The reinstall counted as a network change, which also dropped
  // every pre-restore cached retrieval answer.
  return Status::Ok();
}

}  // namespace gred::core
