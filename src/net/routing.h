#ifndef D3T_NET_ROUTING_H_
#define D3T_NET_ROUTING_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "net/topology.h"
#include "sim/time.h"

namespace d3t::net {

/// All-pairs shortest-path tables (delay and hop count), stored as a
/// *row table*: only rows that were actually computed are allocated.
/// The paper computes routing with Floyd-Warshall (which populates every
/// row); here its triple loop runs on the graph's 2-core only, in
/// O(c^3 + V^2) time for a core of c nodes, and the peeled rows are
/// derived exactly. For large networks the equivalent Dijkstra-based
/// computation restricted to the rows that matter (source +
/// repositories) keeps memory proportional to |rows| x n instead of
/// n x n. Callers that cannot afford even that should use
/// ShortestPathsFrom to stream one row at a time through caller-owned
/// scratch.
class RoutingTables {
 public:
  /// Sentinel delay of an unreachable (or never computed) pair. Chosen
  /// well below kSimTimeMax so sums of two sentinels cannot overflow.
  static constexpr sim::SimTime kUnreachableDelay = sim::kSimTimeMax / 4;
  /// Sentinel hop count of an unreachable (or never computed) pair.
  static constexpr uint32_t kUnreachableHops = UINT32_MAX;

  explicit RoutingTables(size_t node_count);

  /// Unchecked row queries: `from` must be a computed row (always true
  /// after Floyd-Warshall; only for requested sources with Dijkstra) and
  /// `to` in range. Debug builds assert; release builds return the
  /// unreachable sentinels for an uncomputed row rather than reading out
  /// of bounds. Use the Checked variants when the row's validity is not
  /// known statically.
  sim::SimTime Delay(NodeId from, NodeId to) const {
    assert(from < rows_.size() && "routing row out of range");
    assert(to < rows_.size() && "routing column out of range");
    assert(!rows_[from].delay.empty() && "querying an unrouted row");
    if (from >= rows_.size() || to >= rows_.size() ||
        rows_[from].delay.empty()) {
      return kUnreachableDelay;
    }
    return rows_[from].delay[to];
  }
  uint32_t Hops(NodeId from, NodeId to) const {
    assert(from < rows_.size() && "routing row out of range");
    assert(to < rows_.size() && "routing column out of range");
    assert(!rows_[from].hops.empty() && "querying an unrouted row");
    if (from >= rows_.size() || to >= rows_.size() ||
        rows_[from].hops.empty()) {
      return kUnreachableHops;
    }
    return rows_[from].hops[to];
  }

  /// Checked queries: OutOfRange for an endpoint beyond node_count(),
  /// FailedPrecondition for a row that was never computed.
  Result<sim::SimTime> CheckedDelay(NodeId from, NodeId to) const;
  Result<uint32_t> CheckedHops(NodeId from, NodeId to) const;

  /// True when a row was computed (always true for Floyd-Warshall; only
  /// for requested sources with Dijkstra).
  bool HasRow(NodeId from) const {
    return from < rows_.size() && !rows_[from].delay.empty();
  }

  size_t node_count() const { return rows_.size(); }

  /// Full Floyd-Warshall APSP with the paper's results; every row is
  /// allocated. Fails if the topology is disconnected (checked once, up
  /// front, on the whole topology).
  ///
  /// The classic triple loop runs only on the 2-core: every node with
  /// exactly one adjacency entry is peeled off (PeelLeaves, any kind)
  /// until none is left, and the survivors are renumbered in increasing
  /// NodeId order. Then the leaves come back in reverse peel order:
  /// Delay(p, y) = w + Delay(a, y) and Hops(p, y) = 1 + Hops(a, y) for a
  /// leaf p with neighbor a over a link of delay w, for every node y
  /// present when p was peeled, mirrored into column p. Cost
  /// O(c^3 + V^2) for a core of c nodes instead of O(V^3); on the
  /// paper's base case (701 nodes) c is 163-186 on generator seeds 1, 2,
  /// 3 and 20021. Every Delay and Hops entry equals the classic loop on
  /// the whole graph, because the loop changes an entry only on a
  /// *strict* improvement:
  ///  - A leaf's own step never strictly improves any other pair: a path
  ///    through the leaf leaves and re-enters through a, at extra cost
  ///    >= 0.
  ///  - Before step a the leaf reaches nothing beyond a; from step a on,
  ///    its row improves exactly when a's row does, by the same path
  ///    plus the link.
  ///  - The monotone relabel keeps the order of the steps k, and that
  ///    order decides Hops between equal-delay paths.
  /// This holds with zero-delay links and with parallel links, which
  /// give a node two adjacency entries and so keep it in the core.
  static Result<RoutingTables> FloydWarshall(const Topology& topo);

  /// Runs Dijkstra from each node in `rows` only; other rows are never
  /// allocated. O(|rows| * E log V) time and O(|rows| * V) memory — used
  /// for large networks. Duplicate row requests are computed once. Fails
  /// if the topology is disconnected (checked once, up front) or a row
  /// is out of range.
  static Result<RoutingTables> DijkstraRows(const Topology& topo,
                                            const std::vector<NodeId>& rows);

  /// Streaming single-row shortest paths: fills `delay`/`hops` (resized
  /// to the node count, unreachable entries left at the sentinels) with
  /// the shortest paths from `src`, allocating nothing beyond the two
  /// caller-owned buffers. The memory-bounded building block for
  /// per-member delay-model extraction on 10k+ repository networks.
  /// `src` must be in range.
  static void ShortestPathsFrom(const Topology& topo, NodeId src,
                                std::vector<sim::SimTime>& delay,
                                std::vector<uint32_t>& hops);

 private:
  /// One computed row; `delay`/`hops` are empty until routed.
  struct Row {
    std::vector<sim::SimTime> delay;
    std::vector<uint32_t> hops;
  };

  /// Allocates (and sentinel-fills) row `from` if absent.
  Row& EnsureRow(NodeId from);

  /// The classic triple loop over every node of `topo`, no checks: an
  /// unreachable pair keeps the sentinels.
  static RoutingTables TripleLoop(const Topology& topo);

  std::vector<Row> rows_;
};

}  // namespace d3t::net

#endif  // D3T_NET_ROUTING_H_
