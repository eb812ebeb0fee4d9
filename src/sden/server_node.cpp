#include "sden/server_node.hpp"

#include <limits>

namespace gred::sden {

Status ServerNode::store(const std::string& id, std::string payload) {
  const bool overwrite = items_.contains(id);
  if (!overwrite && at_capacity()) {
    return Status(ErrorCode::kUnavailable,
                  "server " + info_.name + " is at capacity");
  }
  items_.upsert(id, std::move(payload));
  return Status::Ok();
}

std::optional<std::string> ServerNode::fetch(const std::string& id) const {
  const std::string* payload = items_.find(id);
  if (payload == nullptr) return std::nullopt;
  return *payload;
}

bool ServerNode::erase(const std::string& id) { return items_.erase(id); }

std::size_t ServerNode::remaining_capacity() const {
  if (info_.capacity == 0) return std::numeric_limits<std::size_t>::max();
  return info_.capacity > items_.size() ? info_.capacity - items_.size() : 0;
}

}  // namespace gred::sden
