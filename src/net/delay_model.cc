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

  // Route the core left after peeling dead-end routers; see the header.
  Result<LeafPeel> core = PeelLeaves(topo, PeelScope::kRoutersOnly);
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
    RoutingTables::ShortestPathsFrom(core->core, task.node, scratch.delay,
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
