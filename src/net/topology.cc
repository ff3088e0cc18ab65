#include "net/topology.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace d3t::net {

Topology::Topology(size_t node_count)
    : kinds_(node_count, NodeKind::kRouter), adjacency_(node_count) {}

void Topology::set_kind(NodeId n, NodeKind kind) { kinds_[n] = kind; }

Status Topology::AddLink(NodeId a, NodeId b, sim::SimTime delay) {
  if (a >= node_count() || b >= node_count()) {
    return Status::OutOfRange("link endpoint out of range");
  }
  if (a == b) return Status::InvalidArgument("self-loop link");
  if (delay < 0) return Status::InvalidArgument("negative link delay");
  links_.push_back(Link{a, b, delay});
  adjacency_[a].emplace_back(b, delay);
  adjacency_[b].emplace_back(a, delay);
  return Status::Ok();
}

std::vector<NodeId> Topology::RepositoryNodes() const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < kinds_.size(); ++n) {
    if (kinds_[n] == NodeKind::kRepository) out.push_back(n);
  }
  return out;
}

std::vector<NodeId> Topology::SourceNodes() const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < kinds_.size(); ++n) {
    if (kinds_[n] == NodeKind::kSource) out.push_back(n);
  }
  return out;
}

NodeId Topology::SourceNode() const {
  NodeId source = kInvalidNode;
  for (NodeId n = 0; n < kinds_.size(); ++n) {
    if (kinds_[n] == NodeKind::kSource) {
      if (source != kInvalidNode) return kInvalidNode;
      source = n;
    }
  }
  return source;
}

bool Topology::IsConnected() const {
  if (node_count() == 0) return true;
  std::vector<bool> seen(node_count(), false);
  std::vector<NodeId> stack = {0};
  seen[0] = true;
  size_t reached = 1;
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    for (const auto& [peer, delay] : adjacency_[n]) {
      (void)delay;
      if (!seen[peer]) {
        seen[peer] = true;
        ++reached;
        stack.push_back(peer);
      }
    }
  }
  return reached == node_count();
}

Result<LeafPeel> PeelLeaves(const Topology& topo, PeelScope scope) {
  const size_t n = topo.node_count();
  auto peelable = [&](NodeId v) {
    return scope == PeelScope::kAnyNode || topo.kind(v) == NodeKind::kRouter;
  };
  // degree[v]: adjacency entries of v that lead to unpeeled nodes.
  std::vector<uint32_t> degree(n);
  std::vector<NodeId> pending;
  for (NodeId v = 0; v < n; ++v) {
    degree[v] = static_cast<uint32_t>(topo.neighbors(v).size());
    if (degree[v] == 1 && peelable(v)) pending.push_back(v);
  }
  std::vector<bool> peeled(n, false);
  std::vector<PeeledLeaf> order;
  while (!pending.empty()) {
    const NodeId v = pending.back();
    pending.pop_back();
    // A queued node whose last neighbor went first is the final node of
    // a tree: it has nothing left to hang off, so it stays.
    if (degree[v] != 1) continue;
    const auto& entries = topo.neighbors(v);
    const auto entry =
        std::find_if(entries.begin(), entries.end(),
                     [&](const auto& e) { return !peeled[e.first]; });
    const NodeId u = entry->first;
    peeled[v] = true;
    order.push_back({v, u, entry->second});
    // Each node reaches one entry at most once, so it is queued once.
    if (--degree[u] == 1 && peelable(u)) pending.push_back(u);
  }

  std::vector<NodeId> core_id(n, kInvalidNode);
  std::vector<NodeId> original_id;
  original_id.reserve(n - order.size());
  for (NodeId v = 0; v < n; ++v) {
    if (peeled[v]) continue;
    core_id[v] = static_cast<NodeId>(original_id.size());
    original_id.push_back(v);
  }
  Topology core(original_id.size());
  for (NodeId c = 0; c < original_id.size(); ++c) {
    core.set_kind(c, topo.kind(original_id[c]));
  }
  for (const Link& link : topo.links()) {
    if (peeled[link.a] || peeled[link.b]) continue;
    D3T_RETURN_IF_ERROR(
        core.AddLink(core_id[link.a], core_id[link.b], link.delay));
  }
  return LeafPeel{std::move(order), std::move(core), std::move(core_id),
                  std::move(original_id)};
}

}  // namespace d3t::net
