#ifndef D3T_NET_TOPOLOGY_H_
#define D3T_NET_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "sim/time.h"

namespace d3t::net {

/// Index of a node (router, repository or source) in the physical network.
using NodeId = uint32_t;

inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// Role a physical node plays in the cooperative-repository architecture.
enum class NodeKind : uint8_t {
  kRouter = 0,
  kRepository = 1,
  kSource = 2,
};

/// An undirected physical link with a fixed propagation+processing delay.
struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  sim::SimTime delay = 0;  // microseconds
};

/// The physical network: nodes (with roles) and undirected weighted links.
/// This is the substrate the paper generates randomly for its simulations
/// (1 source, 100 repositories, 600 routers in the base case).
class Topology {
 public:
  /// Creates a topology with `node_count` router nodes and no links.
  explicit Topology(size_t node_count);

  size_t node_count() const { return kinds_.size(); }
  size_t link_count() const { return links_.size(); }

  NodeKind kind(NodeId n) const { return kinds_[n]; }
  void set_kind(NodeId n, NodeKind kind);

  /// Adds an undirected link; rejects self-loops, out-of-range endpoints
  /// and negative delays. Parallel links are allowed (routing uses the
  /// cheapest).
  Status AddLink(NodeId a, NodeId b, sim::SimTime delay);

  const std::vector<Link>& links() const { return links_; }

  /// Neighbors of `n` as (peer, delay) pairs.
  const std::vector<std::pair<NodeId, sim::SimTime>>& neighbors(
      NodeId n) const {
    return adjacency_[n];
  }

  /// Ids of all repository nodes, in id order.
  std::vector<NodeId> RepositoryNodes() const;

  /// Id of the unique source node, or kInvalidNode if none/multiple.
  NodeId SourceNode() const;

  /// Ids of all source nodes, in id order (multi-source deployments,
  /// paper §4's extension).
  std::vector<NodeId> SourceNodes() const;

  /// True when every node can reach every other node.
  bool IsConnected() const;

 private:
  std::vector<NodeKind> kinds_;
  std::vector<Link> links_;
  std::vector<std::vector<std::pair<NodeId, sim::SimTime>>> adjacency_;
};

/// Which nodes PeelLeaves may remove.
enum class PeelScope : uint8_t {
  /// Any node, whatever its kind (all-pairs routing).
  kAnyNode = 0,
  /// Routers only: overlay members (sources and repositories) always
  /// stay in the core (member-row routing).
  kRoutersOnly = 1,
};

/// A node removed by PeelLeaves: when it went, `leaf` had exactly one
/// adjacency entry left, a link of `delay` to `neighbor`.
struct PeeledLeaf {
  NodeId leaf = kInvalidNode;
  NodeId neighbor = kInvalidNode;
  sim::SimTime delay = 0;
};

/// A topology split into peeled leaves and the core that survives them.
struct LeafPeel {
  /// Leaves in peel order. Each leaf's neighbor is still present when
  /// the leaf goes: it is peeled later or belongs to the core.
  std::vector<PeeledLeaf> peeled;
  /// The survivors renumbered in increasing NodeId order (a monotone
  /// relabel), with their kinds and every link between two survivors,
  /// in the original link order.
  Topology core;
  /// Original NodeId -> core NodeId (kInvalidNode for a peeled node).
  std::vector<NodeId> core_id;
  /// Core NodeId -> original NodeId, increasing.
  std::vector<NodeId> original_id;
};

/// Repeatedly removes every node in `scope` that has exactly one
/// adjacency entry left (parallel links count once each, so they keep
/// both ends), recording the leaf's neighbor and link delay. On a
/// generated network (a random tree plus 5% shortcut links) the core
/// keeps about a quarter of the nodes under kAnyNode and under half
/// under kRoutersOnly. A connected topology stays connected, and a
/// nonempty one keeps at least one node: the last node of a tree has no
/// entry left and is kept. Peeling does not check connectivity; a
/// detached tree shrinks to one node like any other.
Result<LeafPeel> PeelLeaves(const Topology& topo, PeelScope scope);

}  // namespace d3t::net

#endif  // D3T_NET_TOPOLOGY_H_
