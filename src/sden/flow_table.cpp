#include "sden/flow_table.hpp"

#include <sstream>

namespace gred::sden {

void FlowTable::add_neighbor(const NeighborEntry& entry) {
  // Replace an existing entry for the same neighbor (controller
  // re-installations after topology/position updates).
  if (const std::uint32_t* slot = neighbor_index_.find(entry.neighbor)) {
    neighbors_[*slot] = entry;
    return;
  }
  neighbor_index_.insert_or_assign(
      entry.neighbor, static_cast<std::uint32_t>(neighbors_.size()));
  neighbors_.push_back(entry);
}

void FlowTable::add_relay(const RelayEntry& entry) {
  // Dedup on <sour, dest>; the first-installed entry for a dest stays
  // the match winner (relay_by_dest_ is only written on first insert).
  const Key2 pair{entry.sour, entry.dest};
  if (const std::uint32_t* slot = relay_by_pair_.find(pair)) {
    relays_[*slot] = entry;
    return;
  }
  const auto slot = static_cast<std::uint32_t>(relays_.size());
  relay_by_pair_.insert_or_assign(pair, slot);
  if (relay_by_dest_.find(entry.dest) == nullptr) {
    relay_by_dest_.insert_or_assign(entry.dest, slot);
  }
  relays_.push_back(entry);
}

void FlowTable::add_rewrite(const RewriteEntry& entry) {
  if (const std::uint32_t* slot = rewrite_by_server_.find(entry.original)) {
    rewrites_[*slot] = entry;
    return;
  }
  rewrite_by_server_.insert_or_assign(
      entry.original, static_cast<std::uint32_t>(rewrites_.size()));
  rewrites_.push_back(entry);
}

void FlowTable::remove_rewrite(ServerId original) {
  const std::uint32_t* slot = rewrite_by_server_.find(original);
  if (slot == nullptr) return;
  const std::size_t removed = *slot;
  rewrites_.erase(rewrites_.begin() +
                  static_cast<std::ptrdiff_t>(removed));
  // Originals are unique, so exactly one entry left; reindex the tail.
  rewrite_by_server_.erase(original);
  for (std::size_t i = removed; i < rewrites_.size(); ++i) {
    rewrite_by_server_.insert_or_assign(rewrites_[i].original,
                                        static_cast<std::uint32_t>(i));
  }
}

void FlowTable::clear() {
  neighbors_.clear();
  relays_.clear();
  rewrites_.clear();
  neighbor_index_.clear();
  relay_by_pair_.clear();
  relay_by_dest_.clear();
  rewrite_by_server_.clear();
}

std::string FlowTable::to_string() const {
  std::ostringstream os;
  os << "greedy candidates (" << neighbors_.size() << "):\n";
  for (const NeighborEntry& e : neighbors_) {
    os << "  -> sw" << e.neighbor << " at (" << e.position.x << ", "
       << e.position.y << ") "
       << (e.physical ? "[physical]" : "[virtual link]")
       << " first-hop sw" << e.first_hop << "\n";
  }
  os << "relay tuples (" << relays_.size() << "):\n";
  for (const RelayEntry& e : relays_) {
    os << "  <sour=" << e.sour << ", pred=" << e.pred << ", succ=" << e.succ
       << ", dest=" << e.dest << ">\n";
  }
  os << "range-extension rewrites (" << rewrites_.size() << "):\n";
  for (const RewriteEntry& e : rewrites_) {
    os << "  h" << e.original << " -> h" << e.replacement << " via sw"
       << e.via_switch << "\n";
  }
  return os.str();
}

}  // namespace gred::sden
