#include <algorithm>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "net/delay_model.h"
#include "net/routing.h"
#include "net/topology.h"
#include "net/topology_generator.h"

namespace d3t::net {
namespace {

// ---------------------------------------------------------------------------
// Topology

TEST(TopologyTest, StartsAsRouters) {
  Topology topo(5);
  EXPECT_EQ(topo.node_count(), 5u);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(topo.kind(n), NodeKind::kRouter);
  }
  EXPECT_EQ(topo.SourceNode(), kInvalidNode);
}

TEST(TopologyTest, RolesAssignable) {
  Topology topo(4);
  topo.set_kind(0, NodeKind::kSource);
  topo.set_kind(2, NodeKind::kRepository);
  topo.set_kind(3, NodeKind::kRepository);
  EXPECT_EQ(topo.SourceNode(), 0u);
  EXPECT_EQ(topo.RepositoryNodes(), (std::vector<NodeId>{2, 3}));
}

TEST(TopologyTest, MultipleSourcesDetected) {
  Topology topo(3);
  topo.set_kind(0, NodeKind::kSource);
  topo.set_kind(1, NodeKind::kSource);
  EXPECT_EQ(topo.SourceNode(), kInvalidNode);
}

TEST(TopologyTest, LinkValidation) {
  Topology topo(3);
  EXPECT_TRUE(topo.AddLink(0, 1, 10).ok());
  EXPECT_TRUE(topo.AddLink(0, 0, 10).IsInvalidArgument());
  EXPECT_TRUE(topo.AddLink(0, 7, 10).IsOutOfRange());
  EXPECT_TRUE(topo.AddLink(0, 1, -1).IsInvalidArgument());
  EXPECT_EQ(topo.link_count(), 1u);
}

TEST(TopologyTest, AdjacencySymmetric) {
  Topology topo(3);
  ASSERT_TRUE(topo.AddLink(0, 2, 7).ok());
  ASSERT_EQ(topo.neighbors(0).size(), 1u);
  EXPECT_EQ(topo.neighbors(0)[0].first, 2u);
  EXPECT_EQ(topo.neighbors(0)[0].second, 7);
  ASSERT_EQ(topo.neighbors(2).size(), 1u);
  EXPECT_EQ(topo.neighbors(2)[0].first, 0u);
}

TEST(TopologyTest, Connectivity) {
  Topology topo(4);
  EXPECT_FALSE(topo.IsConnected());
  ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
  ASSERT_TRUE(topo.AddLink(1, 2, 1).ok());
  EXPECT_FALSE(topo.IsConnected());
  ASSERT_TRUE(topo.AddLink(2, 3, 1).ok());
  EXPECT_TRUE(topo.IsConnected());
}

// ---------------------------------------------------------------------------
// Generator

TEST(GeneratorTest, ProducesConnectedNetworkWithRoles) {
  Rng rng(1);
  TopologyGeneratorOptions options;
  options.router_count = 60;
  options.repository_count = 10;
  Result<Topology> topo = GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  EXPECT_EQ(topo->node_count(), 71u);
  EXPECT_TRUE(topo->IsConnected());
  EXPECT_NE(topo->SourceNode(), kInvalidNode);
  EXPECT_EQ(topo->RepositoryNodes().size(), 10u);
  // Spanning tree guarantees >= n-1 links.
  EXPECT_GE(topo->link_count(), 70u);
}

TEST(GeneratorTest, RejectsZeroRepositories) {
  Rng rng(2);
  TopologyGeneratorOptions options;
  options.repository_count = 0;
  EXPECT_FALSE(GenerateTopology(options, rng).ok());
}

TEST(GeneratorTest, RejectsBadDelayParams) {
  Rng rng(3);
  TopologyGeneratorOptions options;
  options.link_delay_min_ms = 5.0;
  options.link_delay_mean_ms = 2.0;
  EXPECT_FALSE(GenerateTopology(options, rng).ok());
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  TopologyGeneratorOptions options;
  options.router_count = 30;
  options.repository_count = 5;
  Rng rng1(99), rng2(99);
  Result<Topology> a = GenerateTopology(options, rng1);
  Result<Topology> b = GenerateTopology(options, rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->link_count(), b->link_count());
  for (size_t i = 0; i < a->links().size(); ++i) {
    EXPECT_EQ(a->links()[i].a, b->links()[i].a);
    EXPECT_EQ(a->links()[i].b, b->links()[i].b);
    EXPECT_EQ(a->links()[i].delay, b->links()[i].delay);
  }
}

// ---------------------------------------------------------------------------
// Routing

/// Small fixed network with known shortest paths.
Topology DiamondTopology() {
  // 0 --1ms-- 1 --1ms-- 3,  0 --5ms-- 2 --1ms-- 3
  Topology topo(4);
  EXPECT_TRUE(topo.AddLink(0, 1, sim::Millis(1)).ok());
  EXPECT_TRUE(topo.AddLink(1, 3, sim::Millis(1)).ok());
  EXPECT_TRUE(topo.AddLink(0, 2, sim::Millis(5)).ok());
  EXPECT_TRUE(topo.AddLink(2, 3, sim::Millis(1)).ok());
  return topo;
}

TEST(RoutingTest, FloydWarshallShortestDelays) {
  Topology topo = DiamondTopology();
  Result<RoutingTables> routing = RoutingTables::FloydWarshall(topo);
  ASSERT_TRUE(routing.ok());
  EXPECT_EQ(routing->Delay(0, 3), sim::Millis(2));
  EXPECT_EQ(routing->Hops(0, 3), 2u);
  EXPECT_EQ(routing->Delay(0, 2), sim::Millis(3));  // via 1 and 3
  EXPECT_EQ(routing->Hops(0, 2), 3u);
  EXPECT_EQ(routing->Delay(2, 2), 0);
  EXPECT_EQ(routing->Hops(2, 2), 0u);
}

TEST(RoutingTest, FloydWarshallSymmetricOnUndirectedGraph) {
  Rng rng(5);
  TopologyGeneratorOptions options;
  options.router_count = 40;
  options.repository_count = 8;
  Result<Topology> topo = GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok());
  Result<RoutingTables> routing = RoutingTables::FloydWarshall(*topo);
  ASSERT_TRUE(routing.ok());
  for (NodeId i = 0; i < topo->node_count(); i += 7) {
    for (NodeId j = 0; j < topo->node_count(); j += 5) {
      EXPECT_EQ(routing->Delay(i, j), routing->Delay(j, i));
    }
  }
}

TEST(RoutingTest, FloydWarshallRejectsDisconnected) {
  Topology topo(3);
  ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
  EXPECT_TRUE(RoutingTables::FloydWarshall(topo)
                  .status()
                  .IsFailedPrecondition());
}

TEST(RoutingTest, DijkstraMatchesFloydWarshall) {
  Rng rng(6);
  TopologyGeneratorOptions options;
  options.router_count = 50;
  options.repository_count = 10;
  Result<Topology> topo = GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok());
  Result<RoutingTables> fw = RoutingTables::FloydWarshall(*topo);
  ASSERT_TRUE(fw.ok());
  std::vector<NodeId> rows = {0, 5, 13, 42};
  Result<RoutingTables> dj = RoutingTables::DijkstraRows(*topo, rows);
  ASSERT_TRUE(dj.ok());
  for (NodeId row : rows) {
    EXPECT_TRUE(dj->HasRow(row));
    for (NodeId j = 0; j < topo->node_count(); ++j) {
      EXPECT_EQ(dj->Delay(row, j), fw->Delay(row, j))
          << "row " << row << " col " << j;
    }
  }
  EXPECT_FALSE(dj->HasRow(1));
}

TEST(RoutingTest, ParallelLinksUseCheapest) {
  Topology topo(2);
  ASSERT_TRUE(topo.AddLink(0, 1, sim::Millis(9)).ok());
  ASSERT_TRUE(topo.AddLink(0, 1, sim::Millis(3)).ok());
  Result<RoutingTables> routing = RoutingTables::FloydWarshall(topo);
  ASSERT_TRUE(routing.ok());
  EXPECT_EQ(routing->Delay(0, 1), sim::Millis(3));
}

TEST(RoutingTest, DijkstraRowOutOfRange) {
  Topology topo(2);
  ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
  EXPECT_TRUE(
      RoutingTables::DijkstraRows(topo, {5}).status().IsOutOfRange());
}

TEST(RoutingTest, CheckedQueriesFlagUnroutedRows) {
  // Row-table representation: only requested rows are computed, and
  // querying anything else is a checked error instead of a silent
  // sentinel read.
  Topology topo = DiamondTopology();
  Result<RoutingTables> dj = RoutingTables::DijkstraRows(topo, {0});
  ASSERT_TRUE(dj.ok());
  EXPECT_TRUE(dj->HasRow(0));
  EXPECT_FALSE(dj->HasRow(1));

  Result<sim::SimTime> delay = dj->CheckedDelay(0, 3);
  ASSERT_TRUE(delay.ok());
  EXPECT_EQ(*delay, sim::Millis(2));
  EXPECT_EQ(*delay, dj->Delay(0, 3));
  Result<uint32_t> hops = dj->CheckedHops(0, 3);
  ASSERT_TRUE(hops.ok());
  EXPECT_EQ(*hops, 2u);

  EXPECT_TRUE(dj->CheckedDelay(1, 3).status().IsFailedPrecondition());
  EXPECT_TRUE(dj->CheckedHops(2, 0).status().IsFailedPrecondition());
  EXPECT_TRUE(dj->CheckedDelay(9, 0).status().IsOutOfRange());
  EXPECT_TRUE(dj->CheckedDelay(0, 9).status().IsOutOfRange());
  EXPECT_TRUE(dj->CheckedHops(0, 9).status().IsOutOfRange());
}

TEST(RoutingTest, DuplicateDijkstraRowRequestsAreComputedOnce) {
  Topology topo = DiamondTopology();
  Result<RoutingTables> dj = RoutingTables::DijkstraRows(topo, {0, 0, 3});
  ASSERT_TRUE(dj.ok());
  EXPECT_TRUE(dj->HasRow(0));
  EXPECT_TRUE(dj->HasRow(3));
  EXPECT_EQ(dj->Delay(0, 3), dj->Delay(3, 0));
}

TEST(RoutingTest, StreamingRowMatchesDijkstraTables) {
  Rng rng(9);
  TopologyGeneratorOptions options;
  options.router_count = 30;
  options.repository_count = 6;
  Result<Topology> topo = GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok());
  Result<RoutingTables> dj = RoutingTables::DijkstraRows(*topo, {4});
  ASSERT_TRUE(dj.ok());
  std::vector<sim::SimTime> delay;
  std::vector<uint32_t> hops;
  RoutingTables::ShortestPathsFrom(*topo, 4, delay, hops);
  ASSERT_EQ(delay.size(), topo->node_count());
  for (NodeId j = 0; j < topo->node_count(); ++j) {
    EXPECT_EQ(delay[j], dj->Delay(4, j)) << "col " << j;
    EXPECT_EQ(hops[j], dj->Hops(4, j)) << "col " << j;
  }
}

TEST(RoutingTest, FloydWarshallRejectsDisconnectedShapes) {
  // Peeling leaves keeps a detached tree as one node and a detached
  // cycle whole, so neither may slip past the connectivity check.
  {
    SCOPED_TRACE("isolated node next to a tree");
    Topology topo(5);
    ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
    ASSERT_TRUE(topo.AddLink(1, 2, 1).ok());
    ASSERT_TRUE(topo.AddLink(1, 3, 1).ok());
    EXPECT_TRUE(RoutingTables::FloydWarshall(topo)
                    .status()
                    .IsFailedPrecondition());
  }
  {
    SCOPED_TRACE("detached tree");
    Topology topo(6);
    ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
    ASSERT_TRUE(topo.AddLink(1, 2, 1).ok());
    ASSERT_TRUE(topo.AddLink(2, 0, 1).ok());
    ASSERT_TRUE(topo.AddLink(3, 4, 1).ok());
    ASSERT_TRUE(topo.AddLink(4, 5, 0).ok());
    EXPECT_TRUE(RoutingTables::FloydWarshall(topo)
                    .status()
                    .IsFailedPrecondition());
  }
  {
    SCOPED_TRACE("detached cycle");
    Topology topo(6);
    ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
    ASSERT_TRUE(topo.AddLink(1, 2, 1).ok());
    ASSERT_TRUE(topo.AddLink(3, 4, 1).ok());
    ASSERT_TRUE(topo.AddLink(4, 5, 1).ok());
    ASSERT_TRUE(topo.AddLink(5, 3, 1).ok());
    EXPECT_TRUE(RoutingTables::FloydWarshall(topo)
                    .status()
                    .IsFailedPrecondition());
  }
}

TEST(RoutingTest, DijkstraRowsRejectsDisconnected) {
  // Even when every requested row lies in the connected part.
  Topology topo(4);
  ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
  ASSERT_TRUE(topo.AddLink(2, 3, 1).ok());
  EXPECT_TRUE(RoutingTables::DijkstraRows(topo, {0, 1})
                  .status()
                  .IsFailedPrecondition());
}

TEST(RoutingTest, EmptyAndSingleNodeTopologiesRoute) {
  Result<RoutingTables> empty = RoutingTables::FloydWarshall(Topology(0));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->node_count(), 0u);

  Result<RoutingTables> single = RoutingTables::FloydWarshall(Topology(1));
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->Delay(0, 0), 0);
  EXPECT_EQ(single->Hops(0, 0), 0u);

  Result<RoutingTables> row = RoutingTables::DijkstraRows(Topology(1), {0});
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row->Delay(0, 0), 0);
}

/// Flat all-pairs tables from the classic triple loop over the whole
/// graph: the oracle FloydWarshall's peeled computation must equal.
struct ClassicTables {
  size_t n = 0;
  std::vector<sim::SimTime> delay;
  std::vector<uint32_t> hops;
};

ClassicTables ClassicTripleLoop(const Topology& topo) {
  ClassicTables t;
  t.n = topo.node_count();
  t.delay.assign(t.n * t.n, RoutingTables::kUnreachableDelay);
  t.hops.assign(t.n * t.n, RoutingTables::kUnreachableHops);
  for (size_t i = 0; i < t.n; ++i) {
    t.delay[i * t.n + i] = 0;
    t.hops[i * t.n + i] = 0;
  }
  for (const Link& link : topo.links()) {
    if (link.delay < t.delay[link.a * t.n + link.b]) {
      t.delay[link.a * t.n + link.b] = link.delay;
      t.delay[link.b * t.n + link.a] = link.delay;
      t.hops[link.a * t.n + link.b] = 1;
      t.hops[link.b * t.n + link.a] = 1;
    }
  }
  for (size_t k = 0; k < t.n; ++k) {
    for (size_t i = 0; i < t.n; ++i) {
      const sim::SimTime dik = t.delay[i * t.n + k];
      if (dik >= RoutingTables::kUnreachableDelay) continue;
      for (size_t j = 0; j < t.n; ++j) {
        const sim::SimTime candidate = dik + t.delay[k * t.n + j];
        if (candidate < t.delay[i * t.n + j]) {
          t.delay[i * t.n + j] = candidate;
          t.hops[i * t.n + j] = t.hops[i * t.n + k] + t.hops[k * t.n + j];
        }
      }
    }
  }
  return t;
}

void ExpectMatchesClassicTripleLoop(const Topology& topo) {
  Result<RoutingTables> routing = RoutingTables::FloydWarshall(topo);
  ASSERT_TRUE(routing.ok()) << routing.status().ToString();
  const ClassicTables reference = ClassicTripleLoop(topo);
  ASSERT_EQ(routing->node_count(), reference.n);
  for (NodeId i = 0; i < reference.n; ++i) {
    for (NodeId j = 0; j < reference.n; ++j) {
      // ASSERT: one mismatch is enough; a broken un-peel would otherwise
      // report a whole row per leaf.
      ASSERT_EQ(routing->Delay(i, j), reference.delay[i * reference.n + j])
          << "pair " << i << "," << j;
      ASSERT_EQ(routing->Hops(i, j), reference.hops[i * reference.n + j])
          << "pair " << i << "," << j;
    }
  }
}

/// A random connected graph of one of five shapes with link delays in
/// {0, 1, 2} us, so equal-delay paths with different hop counts are
/// common. Node labels are shuffled so leaves and core interleave.
Topology RandomSmallTopology(Rng& rng, int shape) {
  const size_t n = static_cast<size_t>(rng.NextInRange(1, 14));
  std::vector<NodeId> label(n);
  for (NodeId v = 0; v < n; ++v) label[v] = v;
  rng.Shuffle(label);
  Topology topo(n);
  auto link = [&](NodeId a, NodeId b) {
    EXPECT_TRUE(topo.AddLink(label[a], label[b], rng.NextInRange(0, 2)).ok());
  };
  // Hangs nodes first..n-1 each off a random earlier node.
  auto random_tree = [&](NodeId first) {
    for (NodeId v = std::max<NodeId>(first, 1); v < n; ++v) {
      link(static_cast<NodeId>(rng.NextBounded(v)), v);
    }
  };
  switch (shape) {
    case 0:  // pure path
      for (NodeId v = 1; v < n; ++v) link(v - 1, v);
      break;
    case 1:  // star
      for (NodeId v = 1; v < n; ++v) link(0, v);
      break;
    case 2:  // random tree
      random_tree(1);
      break;
    case 3: {  // cycle with pendant trees
      const NodeId ring =
          static_cast<NodeId>(std::min<size_t>(n, 3 + rng.NextBounded(3)));
      for (NodeId v = 1; v < ring; ++v) link(v - 1, v);
      if (ring >= 3) link(ring - 1, 0);
      random_tree(ring);
      break;
    }
    default:  // tree plus random shortcuts
      random_tree(1);
      for (size_t e = rng.NextBounded(n); e > 0; --e) {
        const NodeId a = static_cast<NodeId>(rng.NextBounded(n));
        const NodeId b = static_cast<NodeId>(rng.NextBounded(n));
        if (a != b) link(a, b);
      }
      break;
  }
  // Parallel links, sometimes on a leaf's only link.
  if (n >= 2 && rng.NextBernoulli(0.5)) {
    const size_t parallel = 1 + rng.NextBounded(2);
    for (size_t e = 0; e < parallel && e < topo.link_count(); ++e) {
      const Link existing =
          topo.links()[rng.NextBounded(topo.link_count())];
      EXPECT_TRUE(
          topo.AddLink(existing.a, existing.b, rng.NextInRange(0, 2)).ok());
    }
  }
  return topo;
}

TEST(RoutingTest, FloydWarshallMatchesClassicTripleLoop) {
  for (uint64_t seed : {1, 2, 3, 20021}) {
    SCOPED_TRACE("generator seed " + std::to_string(seed));
    Rng rng(seed);
    TopologyGeneratorOptions options;  // 600 routers + 100 repos + source
    Result<Topology> topo = GenerateTopology(options, rng);
    ASSERT_TRUE(topo.ok());
    ExpectMatchesClassicTripleLoop(*topo);
  }
  Rng rng(20021);
  constexpr int kShapes = 5;
  for (int g = 0; g < 2500; ++g) {
    SCOPED_TRACE("random graph " + std::to_string(g));
    const Topology topo = RandomSmallTopology(rng, g % kShapes);
    ASSERT_TRUE(topo.IsConnected());
    ExpectMatchesClassicTripleLoop(topo);
  }
}

// ---------------------------------------------------------------------------
// OverlayDelayModel

TEST(DelayModelTest, FromRoutingExtractsMembers) {
  Topology topo = DiamondTopology();
  topo.set_kind(0, NodeKind::kSource);
  topo.set_kind(3, NodeKind::kRepository);
  Result<RoutingTables> routing = RoutingTables::FloydWarshall(topo);
  ASSERT_TRUE(routing.ok());
  Result<OverlayDelayModel> model =
      OverlayDelayModel::FromRouting(topo, *routing);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->member_count(), 2u);
  EXPECT_EQ(model->repository_count(), 1u);
  EXPECT_EQ(model->PhysicalNode(0), 0u);  // source first
  EXPECT_EQ(model->PhysicalNode(1), 3u);
  EXPECT_EQ(model->Delay(0, 1), sim::Millis(2));
  EXPECT_EQ(model->Hops(0, 1), 2u);
  EXPECT_EQ(model->Delay(1, 1), 0);
}

TEST(DelayModelTest, RequiresSource) {
  Topology topo = DiamondTopology();
  topo.set_kind(3, NodeKind::kRepository);
  Result<RoutingTables> routing = RoutingTables::FloydWarshall(topo);
  ASSERT_TRUE(routing.ok());
  EXPECT_TRUE(OverlayDelayModel::FromRouting(topo, *routing)
                  .status()
                  .IsFailedPrecondition());
}

TEST(DelayModelTest, UniformModel) {
  OverlayDelayModel model = OverlayDelayModel::Uniform(4, sim::Millis(10));
  EXPECT_EQ(model.member_count(), 4u);
  EXPECT_EQ(model.Delay(1, 2), sim::Millis(10));
  EXPECT_EQ(model.Delay(2, 2), 0);
  EXPECT_DOUBLE_EQ(model.PairDelayStats().mean(),
                   static_cast<double>(sim::Millis(10)));
}

TEST(DelayModelTest, ScalingHitsTargetMean) {
  OverlayDelayModel model = OverlayDelayModel::Uniform(5, sim::Millis(10));
  OverlayDelayModel scaled = model.ScaledToMeanDelay(sim::Millis(25));
  EXPECT_NEAR(scaled.PairDelayStats().mean(),
              static_cast<double>(sim::Millis(25)), 1.0);
  // Hop counts unchanged.
  EXPECT_EQ(scaled.Hops(1, 2), model.Hops(1, 2));
}

TEST(DelayModelTest, ScalingToZero) {
  OverlayDelayModel model = OverlayDelayModel::Uniform(3, sim::Millis(10));
  OverlayDelayModel zero = model.ScaledToMeanDelay(0);
  EXPECT_EQ(zero.Delay(0, 1), 0);
  EXPECT_EQ(zero.Delay(1, 2), 0);
}

TEST(DelayModelTest, ScalingFromZeroFallsBackToUniform) {
  OverlayDelayModel zero = OverlayDelayModel::Uniform(3, 0);
  OverlayDelayModel scaled = zero.ScaledToMeanDelay(sim::Millis(5));
  EXPECT_EQ(scaled.Delay(0, 1), sim::Millis(5));
  EXPECT_EQ(scaled.Delay(2, 1), sim::Millis(5));
}

// FromTopologyAllSources routes only the member core (dead-end routers
// peeled, survivors relabelled in id order); it must match the two-step
// DijkstraRows + FromRoutingWithSource path on the *unpruned* topology
// pair for pair, and be independent of the worker thread count.
void ExpectStreamedMatchesReference(const Topology& topo) {
  std::vector<NodeId> rows = topo.SourceNodes();
  for (NodeId repo : topo.RepositoryNodes()) rows.push_back(repo);
  Result<RoutingTables> routing = RoutingTables::DijkstraRows(topo, rows);
  ASSERT_TRUE(routing.ok()) << routing.status().ToString();

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Result<std::vector<OverlayDelayModel>> streamed =
        OverlayDelayModel::FromTopologyAllSources(topo, threads);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ASSERT_EQ(streamed->size(), topo.SourceNodes().size());
    for (size_t s = 0; s < streamed->size(); ++s) {
      SCOPED_TRACE("source " + std::to_string(s));
      Result<OverlayDelayModel> reference =
          OverlayDelayModel::FromRoutingWithSource(topo, *routing,
                                                   topo.SourceNodes()[s]);
      ASSERT_TRUE(reference.ok());
      const OverlayDelayModel& model = (*streamed)[s];
      ASSERT_EQ(model.member_count(), reference->member_count());
      for (OverlayIndex i = 0; i < reference->member_count(); ++i) {
        ASSERT_EQ(model.PhysicalNode(i), reference->PhysicalNode(i));
        for (OverlayIndex j = 0; j < reference->member_count(); ++j) {
          // ASSERT: one mismatch is enough; a broken builder would
          // otherwise report every one of ~90k pairs.
          ASSERT_EQ(model.Delay(i, j), reference->Delay(i, j))
              << "pair " << i << "," << j;
          ASSERT_EQ(model.Hops(i, j), reference->Hops(i, j))
              << "pair " << i << "," << j;
        }
      }
    }
  }
}

/// Two sources and three repositories on a core of routers, with every
/// shape the routed-core pruning must handle exactly: dead-end router
/// chains off a router (2-11-0-12), off a repository (4-13-14, the
/// first link zero-delay) and off a source (6-17); a repository at the
/// tip of a router chain (6-7-8-9, 7-8 zero-delay, with a dead end
/// 8-16); parallel links into a repository leaf (5=10) and a router
/// leaf (3=15); and two equal-delay source-to-repository paths with
/// different hop counts (1-2-4 and 1-3-5-4, both 4 ms), so Hops depends
/// on the heap's node-id tie order. Peeled ids (0, 11-14, 16, 17) are
/// interleaved with surviving ones so the relabel is not the identity.
Topology DeadEndTopology() {
  Topology topo(18);
  topo.set_kind(1, NodeKind::kSource);
  topo.set_kind(6, NodeKind::kSource);
  topo.set_kind(4, NodeKind::kRepository);
  topo.set_kind(9, NodeKind::kRepository);
  topo.set_kind(10, NodeKind::kRepository);
  const struct {
    NodeId a, b;
    sim::SimTime delay;
  } links[] = {
      {1, 2, sim::Millis(2)},  {2, 4, sim::Millis(2)},
      {1, 3, sim::Millis(1)},  {3, 5, sim::Millis(1)},
      {5, 4, sim::Millis(2)},  {5, 10, sim::Millis(5)},
      {5, 10, sim::Millis(2)}, {3, 15, sim::Millis(3)},
      {3, 15, sim::Millis(1)}, {6, 2, sim::Millis(3)},
      {6, 7, sim::Millis(1)},  {7, 8, 0},
      {8, 9, sim::Millis(2)},  {8, 16, sim::Millis(1)},
      {6, 17, sim::Millis(4)}, {2, 11, sim::Millis(1)},
      {11, 0, sim::Millis(1)}, {0, 12, sim::Millis(1)},
      {4, 13, 0},              {13, 14, sim::Millis(2)},
  };
  for (const auto& link : links) {
    EXPECT_TRUE(topo.AddLink(link.a, link.b, link.delay).ok());
  }
  return topo;
}

// PeelLeaves on DeadEndTopology: the recorded neighbor of every leaf is
// still present when the leaf goes, the core is relabelled in
// increasing id order, and only routers go under kRoutersOnly.
void ExpectPeel(const Topology& topo, PeelScope scope,
                const std::vector<NodeId>& expected_core) {
  Result<LeafPeel> peel = PeelLeaves(topo, scope);
  ASSERT_TRUE(peel.ok()) << peel.status().ToString();
  EXPECT_EQ(peel->original_id, expected_core);
  EXPECT_EQ(peel->core.node_count(), expected_core.size());
  EXPECT_EQ(peel->peeled.size() + expected_core.size(), topo.node_count());
  std::vector<bool> gone(topo.node_count(), false);
  for (const PeeledLeaf& leaf : peel->peeled) {
    EXPECT_FALSE(gone[leaf.leaf]);
    EXPECT_FALSE(gone[leaf.neighbor]) << "leaf " << leaf.leaf;
    EXPECT_EQ(peel->core_id[leaf.leaf], kInvalidNode);
    if (scope == PeelScope::kRoutersOnly) {
      EXPECT_EQ(topo.kind(leaf.leaf), NodeKind::kRouter);
    }
    gone[leaf.leaf] = true;
  }
  for (NodeId c = 0; c < expected_core.size(); ++c) {
    EXPECT_EQ(peel->core_id[expected_core[c]], c);
    EXPECT_EQ(peel->core.kind(c), topo.kind(expected_core[c]));
  }
  EXPECT_TRUE(peel->core.IsConnected());
}

TEST(TopologyTest, PeelLeavesKeepsTheCoreInIdOrder) {
  const Topology topo = DeadEndTopology();
  {
    SCOPED_TRACE("routers only");
    ExpectPeel(topo, PeelScope::kRoutersOnly, {1, 2, 3, 4, 5, 6, 7, 8, 9,
                                               10, 15});
  }
  {
    // Repository 9, then the chain 8-7 back to source 6, goes too;
    // repository 10 stays on its two parallel links.
    SCOPED_TRACE("any node");
    ExpectPeel(topo, PeelScope::kAnyNode, {1, 2, 3, 4, 5, 10, 15});
  }
  {
    // A tree keeps exactly one node, however it is peeled.
    SCOPED_TRACE("path");
    Topology path(3);
    ASSERT_TRUE(path.AddLink(0, 1, 1).ok());
    ASSERT_TRUE(path.AddLink(1, 2, 1).ok());
    Result<LeafPeel> peel = PeelLeaves(path, PeelScope::kAnyNode);
    ASSERT_TRUE(peel.ok());
    EXPECT_EQ(peel->core.node_count(), 1u);
    EXPECT_EQ(peel->peeled.size(), 2u);
  }
}

TEST(DelayModelTest, StreamingBuilderMatchesRoutedExtraction) {
  {
    SCOPED_TRACE("hand-built dead ends");
    const Topology topo = DeadEndTopology();
    ExpectStreamedMatchesReference(topo);
    // The tie the hop counts hinge on: source 1 reaches repository 4 in
    // 4 ms both via router 2 (2 hops) and via routers 3, 5 (3 hops);
    // router 2 pops first, so the 2-hop path wins.
    Result<std::vector<OverlayDelayModel>> models =
        OverlayDelayModel::FromTopologyAllSources(topo);
    ASSERT_TRUE(models.ok());
    EXPECT_EQ((*models)[0].PhysicalNode(1), 4u);
    EXPECT_EQ((*models)[0].Delay(0, 1), sim::Millis(4));
    EXPECT_EQ((*models)[0].Hops(0, 1), 2u);
  }
  {
    SCOPED_TRACE("generator, 3 sources");
    Rng rng(11);
    TopologyGeneratorOptions options;
    options.router_count = 40;
    options.repository_count = 9;
    options.source_count = 3;
    Result<Topology> topo = GenerateTopology(options, rng);
    ASSERT_TRUE(topo.ok());
    ExpectStreamedMatchesReference(*topo);
  }
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("generator seed " + std::to_string(seed));
    Rng rng(seed);
    TopologyGeneratorOptions options;
    options.router_count = 2000;
    options.repository_count = 300;
    Result<Topology> topo = GenerateTopology(options, rng);
    ASSERT_TRUE(topo.ok());
    ExpectStreamedMatchesReference(*topo);
  }
}

TEST(DelayModelTest, StreamingBuilderRejectsDisconnectedTopology) {
  {
    SCOPED_TRACE("detached router");
    Topology topo(3);
    ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
    topo.set_kind(0, NodeKind::kSource);
    topo.set_kind(1, NodeKind::kRepository);
    EXPECT_TRUE(OverlayDelayModel::FromTopologyAllSources(topo)
                    .status()
                    .IsFailedPrecondition());
  }
  {
    // Pruning alone would peel the whole detached path away.
    SCOPED_TRACE("detached router path");
    Topology topo(5);
    ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
    ASSERT_TRUE(topo.AddLink(2, 3, 1).ok());
    ASSERT_TRUE(topo.AddLink(3, 4, 1).ok());
    topo.set_kind(0, NodeKind::kSource);
    topo.set_kind(1, NodeKind::kRepository);
    EXPECT_TRUE(OverlayDelayModel::FromTopologyAllSources(topo, 4)
                    .status()
                    .IsFailedPrecondition());
  }
  {
    // Pruning keeps a detached cycle, which no member can reach.
    SCOPED_TRACE("detached router triangle");
    Topology topo(5);
    ASSERT_TRUE(topo.AddLink(0, 1, 1).ok());
    ASSERT_TRUE(topo.AddLink(2, 3, 1).ok());
    ASSERT_TRUE(topo.AddLink(3, 4, 1).ok());
    ASSERT_TRUE(topo.AddLink(4, 2, 1).ok());
    topo.set_kind(0, NodeKind::kSource);
    topo.set_kind(1, NodeKind::kRepository);
    EXPECT_TRUE(OverlayDelayModel::FromTopologyAllSources(topo, 4)
                    .status()
                    .IsFailedPrecondition());
  }
}

// ---------------------------------------------------------------------------
// Paper-scale shape: ~10 repo-to-repo hops and 20-30 ms pair delays on
// the 700-node base network (paper §6.1).

TEST(PaperShapeTest, BaseNetworkHopAndDelayRegime) {
  Rng rng(42);
  TopologyGeneratorOptions options;  // 600 routers + 100 repos + source
  Result<Topology> topo = GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok());
  std::vector<NodeId> rows;
  rows.push_back(topo->SourceNode());
  for (NodeId repo : topo->RepositoryNodes()) rows.push_back(repo);
  Result<RoutingTables> routing = RoutingTables::DijkstraRows(*topo, rows);
  ASSERT_TRUE(routing.ok());
  Result<OverlayDelayModel> model =
      OverlayDelayModel::FromRouting(*topo, *routing);
  ASSERT_TRUE(model.ok());
  const double hops = model->MeanPairHops();
  const double delay_ms = model->PairDelayStats().mean() / 1000.0;
  EXPECT_GT(hops, 6.0) << "mean repo-to-repo hops";
  EXPECT_LT(hops, 16.0);
  EXPECT_GT(delay_ms, 10.0) << "mean repo-to-repo delay (ms)";
  EXPECT_LT(delay_ms, 45.0);
}

}  // namespace
}  // namespace d3t::net
