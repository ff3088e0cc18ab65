#include "net/delay_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/thread_pool.h"

namespace d3t::net {

OverlayDelayModel::OverlayDelayModel(size_t count)
    : count_(count),
      delay_(count * count, 0),
      hops_(count * count, 0),
      physical_(count, kInvalidNode) {}

OverlayDelayModel::PackedDelay OverlayDelayModel::PackDelay(
    sim::SimTime delay) {
  assert(delay >= 0 && "pair delays are nonnegative");
  assert(delay <= std::numeric_limits<PackedDelay>::max() &&
         "pair delay overflows the compressed 32-bit store");
  if (delay < 0) return 0;
  if (delay > std::numeric_limits<PackedDelay>::max()) {
    return std::numeric_limits<PackedDelay>::max();
  }
  return static_cast<PackedDelay>(delay);
}

OverlayDelayModel::PackedHops OverlayDelayModel::PackHops(uint32_t hops) {
  assert(hops <= std::numeric_limits<PackedHops>::max() &&
         "pair hop count overflows the compressed 16-bit store");
  return static_cast<PackedHops>(
      std::min<uint32_t>(hops, std::numeric_limits<PackedHops>::max()));
}

Result<OverlayDelayModel> OverlayDelayModel::FromRouting(
    const Topology& topo, const RoutingTables& routing) {
  const NodeId source = topo.SourceNode();
  if (source == kInvalidNode) {
    return Status::FailedPrecondition("topology must have exactly one source");
  }
  return FromRoutingWithSource(topo, routing, source);
}

Result<OverlayDelayModel> OverlayDelayModel::FromRoutingWithSource(
    const Topology& topo, const RoutingTables& routing, NodeId source) {
  if (source >= topo.node_count() ||
      topo.kind(source) != NodeKind::kSource) {
    return Status::InvalidArgument("node is not a source");
  }
  std::vector<NodeId> members;
  members.push_back(source);
  for (NodeId repo : topo.RepositoryNodes()) members.push_back(repo);

  OverlayDelayModel model(members.size());
  model.physical_ = members;
  for (OverlayIndex i = 0; i < members.size(); ++i) {
    if (!routing.HasRow(members[i])) {
      return Status::FailedPrecondition(
          "routing row missing for overlay member");
    }
    for (OverlayIndex j = 0; j < members.size(); ++j) {
      model.delay_[model.Idx(i, j)] =
          PackDelay(routing.Delay(members[i], members[j]));
      model.hops_[model.Idx(i, j)] =
          PackHops(routing.Hops(members[i], members[j]));
    }
  }
  return model;
}

namespace {

/// `topo` with its dead-end routers peeled off: every non-member node
/// (neither source nor repository) left with at most one adjacency entry
/// is removed, repeatedly, and the survivors are renumbered in
/// increasing NodeId order. See FromTopologyAllSources for why routing
/// the core alone is exact.
struct RoutedCore {
  Topology topo;
  /// Original NodeId -> core NodeId (kInvalidNode for peeled routers).
  std::vector<NodeId> core_id;
};

Result<RoutedCore> PeelDeadEndRouters(const Topology& topo) {
  const size_t n = topo.node_count();
  std::vector<uint32_t> degree(n);
  std::vector<NodeId> peelable;
  for (NodeId v = 0; v < n; ++v) {
    degree[v] = static_cast<uint32_t>(topo.neighbors(v).size());
    if (topo.kind(v) == NodeKind::kRouter && degree[v] <= 1) {
      peelable.push_back(v);
    }
  }
  std::vector<bool> peeled(n, false);
  while (!peelable.empty()) {
    const NodeId v = peelable.back();
    peelable.pop_back();
    peeled[v] = true;
    for (const auto& neighbor : topo.neighbors(v)) {
      const NodeId u = neighbor.first;
      // Only a router whose count just fell to one is new work: one that
      // falls to zero was already queued at one.
      if (!peeled[u] && --degree[u] == 1 &&
          topo.kind(u) == NodeKind::kRouter) {
        peelable.push_back(u);
      }
    }
  }

  std::vector<NodeId> core_id(n, kInvalidNode);
  NodeId core_count = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (!peeled[v]) core_id[v] = core_count++;
  }
  Topology core(core_count);
  for (NodeId v = 0; v < n; ++v) {
    if (!peeled[v]) core.set_kind(core_id[v], topo.kind(v));
  }
  for (const Link& link : topo.links()) {
    if (peeled[link.a] || peeled[link.b]) continue;
    D3T_RETURN_IF_ERROR(
        core.AddLink(core_id[link.a], core_id[link.b], link.delay));
  }
  return RoutedCore{std::move(core), std::move(core_id)};
}

}  // namespace

Result<std::vector<OverlayDelayModel>>
OverlayDelayModel::FromTopologyAllSources(const Topology& topo,
                                          size_t worker_threads) {
  const std::vector<NodeId> sources = topo.SourceNodes();
  if (sources.empty()) {
    return Status::FailedPrecondition("topology has no source node");
  }
  if (!topo.IsConnected()) {
    return Status::FailedPrecondition("topology is disconnected");
  }
  const std::vector<NodeId> repos = topo.RepositoryNodes();
  const size_t member_count = repos.size() + 1;

  std::vector<OverlayDelayModel> models;
  models.reserve(sources.size());
  for (NodeId source : sources) {
    OverlayDelayModel model(member_count);
    model.physical_[0] = source;
    for (size_t r = 0; r < repos.size(); ++r) {
      model.physical_[r + 1] = repos[r];
    }
    models.push_back(std::move(model));
  }

  Result<RoutedCore> core = PeelDeadEndRouters(topo);
  if (!core.ok()) return core.status();
  // Member ids inside the core; members are never peeled.
  std::vector<NodeId> core_sources;
  core_sources.reserve(sources.size());
  for (NodeId source : sources) core_sources.push_back(core->core_id[source]);
  std::vector<NodeId> core_repos;
  core_repos.reserve(repos.size());
  for (NodeId repo : repos) core_repos.push_back(core->core_id[repo]);

  // One row task per distinct member node: a source fills row 0 of its
  // own model; a repository fills row r+1 of every model. Tasks write
  // disjoint rows, so fanning them out over the pool is deterministic
  // regardless of scheduling.
  struct RowTask {
    /// Core id of the member the row starts from.
    NodeId node;
    /// Source index owning the row, or SIZE_MAX for a repository row.
    size_t source_index;
    /// Member row the task fills (0 for sources, r+1 for repositories).
    OverlayIndex member_row;
  };
  std::vector<RowTask> tasks;
  tasks.reserve(sources.size() + repos.size());
  for (size_t s = 0; s < sources.size(); ++s) {
    tasks.push_back({core_sources[s], s, 0});
  }
  for (size_t r = 0; r < repos.size(); ++r) {
    tasks.push_back(
        {core_repos[r], SIZE_MAX, static_cast<OverlayIndex>(r + 1)});
  }

  struct Scratch {
    std::vector<sim::SimTime> delay;
    std::vector<uint32_t> hops;
  };
  auto run_task = [&](const RowTask& task, Scratch& scratch) {
    RoutingTables::ShortestPathsFrom(core->topo, task.node, scratch.delay,
                                     scratch.hops);
    const size_t first = task.source_index == SIZE_MAX ? 0 : task.source_index;
    const size_t last =
        task.source_index == SIZE_MAX ? models.size() : task.source_index + 1;
    for (size_t s = first; s < last; ++s) {
      OverlayDelayModel& model = models[s];
      const size_t base = model.Idx(task.member_row, 0);
      model.delay_[base] = PackDelay(scratch.delay[core_sources[s]]);
      model.hops_[base] = PackHops(scratch.hops[core_sources[s]]);
      for (size_t r = 0; r < repos.size(); ++r) {
        model.delay_[base + r + 1] = PackDelay(scratch.delay[core_repos[r]]);
        model.hops_[base + r + 1] = PackHops(scratch.hops[core_repos[r]]);
      }
    }
  };

  if (worker_threads <= 1 || tasks.size() <= 1) {
    Scratch scratch;
    for (const RowTask& task : tasks) run_task(task, scratch);
    return models;
  }

  ThreadPool pool(std::min(worker_threads, tasks.size()));
  const size_t shard_count = pool.thread_count();
  for (size_t shard = 0; shard < shard_count; ++shard) {
    pool.Submit([&, shard] {
      Scratch scratch;
      for (size_t i = shard; i < tasks.size(); i += shard_count) {
        run_task(tasks[i], scratch);
      }
    });
  }
  pool.Wait();
  return models;
}

OverlayDelayModel OverlayDelayModel::Uniform(size_t member_count,
                                             sim::SimTime delay,
                                             uint32_t hops) {
  OverlayDelayModel model(member_count);
  const PackedDelay packed_delay = PackDelay(delay);
  const PackedHops packed_hops = PackHops(hops);
  for (OverlayIndex i = 0; i < member_count; ++i) {
    for (OverlayIndex j = 0; j < member_count; ++j) {
      if (i == j) continue;
      model.delay_[model.Idx(i, j)] = packed_delay;
      model.hops_[model.Idx(i, j)] = packed_hops;
    }
  }
  return model;
}

StreamingStats OverlayDelayModel::PairDelayStats() const {
  StreamingStats stats;
  for (OverlayIndex i = 0; i < count_; ++i) {
    for (OverlayIndex j = 0; j < count_; ++j) {
      if (i == j) continue;
      stats.Add(static_cast<double>(delay_[Idx(i, j)]));
    }
  }
  return stats;
}

double OverlayDelayModel::MeanPairHops() const {
  StreamingStats stats;
  for (OverlayIndex i = 0; i < count_; ++i) {
    for (OverlayIndex j = 0; j < count_; ++j) {
      if (i == j) continue;
      stats.Add(static_cast<double>(hops_[Idx(i, j)]));
    }
  }
  return stats.mean();
}

OverlayDelayModel OverlayDelayModel::ScaledToMeanDelay(
    sim::SimTime target_mean) const {
  OverlayDelayModel out = *this;
  const double current = PairDelayStats().mean();
  if (current <= 0.0 || target_mean <= 0) {
    for (auto& d : out.delay_) d = 0;
    if (target_mean <= 0) return out;
    // Degenerate input model: fall back to a uniform target delay.
    const PackedDelay packed = PackDelay(target_mean);
    for (OverlayIndex i = 0; i < count_; ++i) {
      for (OverlayIndex j = 0; j < count_; ++j) {
        if (i != j) out.delay_[Idx(i, j)] = packed;
      }
    }
    return out;
  }
  const double factor = static_cast<double>(target_mean) / current;
  for (auto& d : out.delay_) {
    d = PackDelay(static_cast<sim::SimTime>(
        std::llround(static_cast<double>(d) * factor)));
  }
  return out;
}

}  // namespace d3t::net
