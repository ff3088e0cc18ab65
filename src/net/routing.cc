#include "net/routing.h"

#include <queue>
#include <utility>

namespace d3t::net {

RoutingTables::RoutingTables(size_t node_count) : rows_(node_count) {}

RoutingTables::Row& RoutingTables::EnsureRow(NodeId from) {
  Row& row = rows_[from];
  if (row.delay.empty()) {
    row.delay.assign(rows_.size(), kUnreachableDelay);
    row.hops.assign(rows_.size(), kUnreachableHops);
  }
  return row;
}

Result<sim::SimTime> RoutingTables::CheckedDelay(NodeId from,
                                                 NodeId to) const {
  if (from >= rows_.size() || to >= rows_.size()) {
    return Status::OutOfRange("routing query endpoint out of range");
  }
  if (rows_[from].delay.empty()) {
    return Status::FailedPrecondition("routing row was never computed");
  }
  return rows_[from].delay[to];
}

Result<uint32_t> RoutingTables::CheckedHops(NodeId from, NodeId to) const {
  if (from >= rows_.size() || to >= rows_.size()) {
    return Status::OutOfRange("routing query endpoint out of range");
  }
  if (rows_[from].hops.empty()) {
    return Status::FailedPrecondition("routing row was never computed");
  }
  return rows_[from].hops[to];
}

RoutingTables RoutingTables::TripleLoop(const Topology& topo) {
  const size_t n = topo.node_count();
  RoutingTables t(n);
  for (NodeId i = 0; i < n; ++i) {
    Row& row = t.EnsureRow(i);
    row.delay[i] = 0;
    row.hops[i] = 0;
  }
  for (const Link& link : topo.links()) {
    // Parallel links: keep the cheapest.
    if (link.delay < t.rows_[link.a].delay[link.b]) {
      t.rows_[link.a].delay[link.b] = link.delay;
      t.rows_[link.b].delay[link.a] = link.delay;
      t.rows_[link.a].hops[link.b] = 1;
      t.rows_[link.b].hops[link.a] = 1;
    }
  }
  // Classic triple loop (Floyd & Warshall, as cited by the paper [7]).
  for (NodeId k = 0; k < n; ++k) {
    const sim::SimTime* dk = t.rows_[k].delay.data();
    const uint32_t* hk = t.rows_[k].hops.data();
    for (NodeId i = 0; i < n; ++i) {
      const sim::SimTime dik = t.rows_[i].delay[k];
      if (dik >= kUnreachableDelay) continue;
      sim::SimTime* di = t.rows_[i].delay.data();
      uint32_t* hi = t.rows_[i].hops.data();
      const uint32_t hik = hi[k];
      for (NodeId j = 0; j < n; ++j) {
        const sim::SimTime candidate = dik + dk[j];
        if (candidate < di[j]) {
          di[j] = candidate;
          hi[j] = hik + hk[j];
        }
      }
    }
  }
  return t;
}

Result<RoutingTables> RoutingTables::FloydWarshall(const Topology& topo) {
  // Peeling keeps a detached tree as one node, so connectivity is
  // checked on the whole topology, before anything is removed.
  if (!topo.IsConnected()) {
    return Status::FailedPrecondition("topology is disconnected");
  }
  Result<LeafPeel> peel = PeelLeaves(topo, PeelScope::kAnyNode);
  if (!peel.ok()) return peel.status();
  RoutingTables core = TripleLoop(peel->core);

  // Each row is built whole and never written into from another row:
  // the core rows first, then the leaves in reverse peel order, so a
  // leaf's neighbor row is complete before the leaf's own. The peeled
  // entries follow from the un-peel rule Delay(p, y) = w + Delay(a, y)
  // (Hops one more) and the table's symmetry:
  //  - column of leaf y, hanging off a by a link of delay w, in a row x
  //    outside y's subtree: Delay(x, y) = w + Delay(x, a);
  //  - row of leaf p: Delay(p, x) = w + Delay(a, x) for every column x
  //    outside p's subtree, and the first rule for the columns inside.
  // Filling column p of every present row at each un-peel would give
  // the same table but scatter its writes across all rows, which cost
  // about a third more time on the 701-node base case.
  const size_t n = topo.node_count();
  const std::vector<NodeId>& original_id = peel->original_id;
  const std::vector<PeeledLeaf>& peeled = peel->peeled;
  RoutingTables t(n);
  for (NodeId c = 0; c < original_id.size(); ++c) {
    // Move the core row to its original id and spread its entries out to
    // their original columns. original_id is increasing with
    // original_id[c] >= c, so going from the last column down never
    // overwrites an entry before it is read.
    Row& row = t.rows_[original_id[c]];
    row = std::move(core.rows_[c]);
    row.delay.resize(n);
    row.hops.resize(n);
    for (NodeId j = static_cast<NodeId>(original_id.size()); j-- > 0;) {
      row.delay[original_id[j]] = row.delay[j];
      row.hops[original_id[j]] = row.hops[j];
    }
    // No core node lies in a leaf's subtree.
    for (auto y = peeled.rbegin(); y != peeled.rend(); ++y) {
      row.delay[y->leaf] = y->delay + row.delay[y->neighbor];
      row.hops[y->leaf] = 1 + row.hops[y->neighbor];
    }
  }
  // subtree_of[v] == p marks v as p or a node of p's subtree while p's
  // row is built; the subtree comes after p in reverse peel order.
  std::vector<NodeId> subtree_of(n, kInvalidNode);
  for (auto it = peeled.rbegin(); it != peeled.rend(); ++it) {
    const NodeId p = it->leaf;
    const sim::SimTime w = it->delay;
    Row& row = t.rows_[p];
    row.delay.resize(n);
    row.hops.resize(n);
    sim::SimTime* delay = row.delay.data();
    uint32_t* hops = row.hops.data();
    const sim::SimTime* from_delay = t.rows_[it->neighbor].delay.data();
    const uint32_t* from_hops = t.rows_[it->neighbor].hops.data();
    for (NodeId x = 0; x < n; ++x) {
      delay[x] = w + from_delay[x];
      hops[x] = 1 + from_hops[x];
    }
    delay[p] = 0;
    hops[p] = 0;
    subtree_of[p] = p;
    for (auto y = it + 1; y != peeled.rend(); ++y) {
      if (subtree_of[y->neighbor] != p) continue;
      subtree_of[y->leaf] = p;
      delay[y->leaf] = y->delay + delay[y->neighbor];
      hops[y->leaf] = 1 + hops[y->neighbor];
    }
  }
  return t;
}

void RoutingTables::ShortestPathsFrom(const Topology& topo, NodeId src,
                                      std::vector<sim::SimTime>& delay,
                                      std::vector<uint32_t>& hops) {
  assert(src < topo.node_count());
  delay.assign(topo.node_count(), kUnreachableDelay);
  hops.assign(topo.node_count(), kUnreachableHops);
  using Item = std::pair<sim::SimTime, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  delay[src] = 0;
  hops[src] = 0;
  pq.emplace(0, src);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > delay[u]) continue;
    for (const auto& [v, w] : topo.neighbors(u)) {
      const sim::SimTime nd = d + w;
      if (nd < delay[v]) {
        delay[v] = nd;
        hops[v] = hops[u] + 1;
        pq.emplace(nd, v);
      }
    }
  }
}

Result<RoutingTables> RoutingTables::DijkstraRows(
    const Topology& topo, const std::vector<NodeId>& rows) {
  if (!topo.IsConnected()) {
    return Status::FailedPrecondition("topology is disconnected");
  }
  RoutingTables t(topo.node_count());
  for (NodeId src : rows) {
    if (src >= topo.node_count()) {
      return Status::OutOfRange("dijkstra row out of range");
    }
    if (t.HasRow(src)) continue;  // duplicate request
    Row& row = t.rows_[src];
    ShortestPathsFrom(topo, src, row.delay, row.hops);
  }
  return t;
}

}  // namespace d3t::net
