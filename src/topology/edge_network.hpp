// An edge network = switch-level topology + edge servers attached to
// switches. This is the substrate both GRED and the Chord baseline run
// on: the paper's simulations attach 10 servers per switch by default
// and also exercise heterogeneous counts and capacities.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace gred::topology {

using SwitchId = graph::NodeId;
using ServerId = std::size_t;
inline constexpr ServerId kNoServer = static_cast<ServerId>(-1);

struct EdgeServer {
  ServerId id = kNoServer;     ///< global dense id
  SwitchId attached_to = 0;    ///< switch this server hangs off
  std::size_t local_index = 0; ///< serial number 0..s-1 at its switch
  std::size_t capacity = 0;    ///< storage capacity in items (0 = unbounded)
  std::string name;            ///< "h<id>", for logs and examples
};

/// Topology + servers. Invariant: server ids are dense, and
/// `servers_at(sw)[k].local_index == k` (the serial numbers the
/// terminal switch uses for the H(d) mod s server choice).
class EdgeNetwork {
 public:
  EdgeNetwork() = default;
  explicit EdgeNetwork(graph::Graph switches);

  const graph::Graph& switches() const { return switches_; }
  graph::Graph& mutable_switches() { return switches_; }

  std::size_t switch_count() const { return switches_.node_count(); }
  std::size_t server_count() const { return servers_.size(); }

  /// Attaches a new server to `sw`; returns its global id.
  Result<ServerId> attach_server(SwitchId sw, std::size_t capacity = 0);

  /// Adds a new switch node (dynamics, Section VI); returns its id.
  SwitchId add_switch();

  /// Detaches all servers from `sw` (their records keep their global
  /// ids but no longer appear in servers_at(sw)). Used on switch leave.
  void detach_servers(SwitchId sw);

  /// Drops switches and servers back down to the given counts — the
  /// rollback primitive for a failed add_switch. Only tail entries can
  /// go (ids are dense and append-only), and a dropped server must
  /// belong to a surviving-or-dropped switch's tail, which holds for
  /// the add_switch sequence (servers attach to the new last switch).
  void truncate(std::size_t switch_count, std::size_t server_count);

  const EdgeServer& server(ServerId id) const { return servers_[id]; }

  /// Global ids of the servers attached to `sw`, ordered by local index.
  const std::vector<ServerId>& servers_at(SwitchId sw) const {
    return by_switch_[sw];
  }

  const std::vector<EdgeServer>& all_servers() const { return servers_; }

 private:
  graph::Graph switches_;
  std::vector<EdgeServer> servers_;
  std::vector<std::vector<ServerId>> by_switch_;
};

/// Attaches exactly `per_switch` servers with `capacity` to every
/// switch (the paper's default: 10 per switch).
EdgeNetwork uniform_edge_network(graph::Graph switches,
                                 std::size_t per_switch,
                                 std::size_t capacity = 0);

struct HeterogeneousOptions {
  std::size_t min_servers_per_switch = 1;
  std::size_t max_servers_per_switch = 10;
  std::size_t min_capacity = 100;
  std::size_t max_capacity = 1000;
};

/// Attaches a random number of servers with random capacities to each
/// switch (the paper: "switches could connect to different numbers of
/// edge servers or servers with different capacity").
EdgeNetwork heterogeneous_edge_network(graph::Graph switches,
                                       const HeterogeneousOptions& options,
                                       Rng& rng);

}  // namespace gred::topology
