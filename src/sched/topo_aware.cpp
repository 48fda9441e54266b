#include "sched/topo_aware.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "check/check.hpp"
#include "obs/explain.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/task_utility.hpp"

namespace gts::sched {

namespace {

partition::SpanMode span_mode(const jobgraph::JobProfile& profile) {
  if (profile.anti_collocate) return partition::SpanMode::kAntiCollocate;
  if (profile.single_node) return partition::SpanMode::kSingleNode;
  return partition::SpanMode::kPreferPack;
}

/// Adds `placement` to the explain record of the decision in flight, if
/// any (the DecisionScope is thread-local, so only the decision thread
/// ever sees one). The source is `source`, suffixed with `machine` when
/// that is not negative.
void explain_candidate(const Placement& placement, const char* source,
                       int machine = -1) {
  if (obs::DecisionScope* scope = obs::DecisionScope::current()) {
    obs::ExplainCandidate candidate;
    candidate.gpus = placement.gpus;
    candidate.terms.utility = placement.utility;
    candidate.source = source;
    if (machine >= 0) candidate.source += std::to_string(machine);
    scope->add_candidate(std::move(candidate));
  }
}

}  // namespace

std::optional<Placement> TopoAwareScheduler::place(
    const jobgraph::JobRequest& request, const cluster::ClusterState& state) {
  obs::SpanGuard span(obs::kSched, "topo.place");
  span.arg("job", request.id).arg("gpus", request.num_gpus);
  // Zero-cost role acquisition (DESIGN.md §16.2): asserts single-threaded
  // ownership of the placement cache for the whole decision.
  const util::SerialGuard guard(cache_serial_);
  std::optional<Placement> placement;
  if (request.profile.single_node && !request.profile.anti_collocate &&
      state.topology().machine_count() > direct_drb_machine_limit) {
    placement = place_on_best_machine(request, state);
  } else {
    const std::vector<int> available = filter_hosts(request, state);
    if (static_cast<int>(available.size()) < request.num_gpus) {
      return std::nullopt;
    }
    placement = map_onto(request, available, state);
  }
  if (!placement) return std::nullopt;

  placement->satisfied = placement->utility + 1e-9 >= request.min_utility;
  if (postpone_ && !placement->satisfied) {
    // TOPO-AWARE-P: hold the job for a better allocation (Algorithm 1's
    // postponed list; the Driver re-offers it on the next wakeup).
    return std::nullopt;
  }
  return placement;
}

std::optional<Placement> drb_evaluate(const jobgraph::JobRequest& request,
                                      const std::vector<int>& available,
                                      const cluster::ClusterState& state,
                                      const UtilityModel& utility,
                                      partition::DrbStats* stats) {
  obs::SpanGuard span(obs::kDrb, "drb.map");
  span.arg("tasks", request.num_gpus)
      .arg("available", static_cast<double>(available.size()));
  const TaskUtility callbacks(request, state, utility);
  partition::DrbOptions options;
  options.span = span_mode(request.profile);
  partition::DrbResult result = partition::drb_map(
      request.comm_graph, available, state.topology(), callbacks, options);
  if (stats != nullptr) {
    stats->bipartitions += result.stats.bipartitions;
    stats->fm_passes += result.stats.fm_passes;
    stats->max_depth = std::max(stats->max_depth, result.stats.max_depth);
  }
  span.arg("bipartitions", static_cast<double>(result.stats.bipartitions))
      .arg("depth", static_cast<double>(result.stats.max_depth));
  GTS_METRIC_HISTOGRAM("drb.depth",
                       static_cast<double>(result.stats.max_depth),
                       obs::depth_bounds());
  if (!result.complete) return std::nullopt;

  Placement placement;
  placement.gpus = result.assignment;
  placement.utility = utility.placement_utility(request, placement.gpus, state);
  placement.satisfied = placement.utility + 1e-9 >= request.min_utility;
  return placement;
}

std::optional<Placement> drb_place(const jobgraph::JobRequest& request,
                                   const std::vector<int>& available,
                                   const cluster::ClusterState& state,
                                   const UtilityModel& utility,
                                   partition::DrbStats* stats) {
  std::optional<Placement> placement =
      drb_evaluate(request, available, state, utility, stats);
  if (placement) explain_candidate(*placement, "drb");
  return placement;
}

TopoAwareScheduler::CacheEntry TopoAwareScheduler::CacheEntry::of(
    const std::optional<Placement>& placement) {
  CacheEntry entry;
  entry.mapped = placement.has_value();
  if (placement) {
    entry.gpus = placement->gpus;
    entry.utility = placement->utility;
  }
  return entry;
}

std::optional<Placement> TopoAwareScheduler::CacheEntry::placement(
    const jobgraph::JobRequest& request) const {
  if (!mapped) return std::nullopt;
  Placement placement;
  placement.gpus = gpus;
  placement.utility = utility;
  placement.satisfied = placement.utility + 1e-9 >= request.min_utility;
  return placement;
}

void TopoAwareScheduler::set_parallel_scoring(int threads) {
  const util::SerialGuard guard(cache_serial_);
  if (threads == 0) {
    scoring_pool_.reset();
    return;
  }
  // ThreadPool treats <= 0 as "all cores"; normalize our contract's -1.
  scoring_pool_ =
      std::make_unique<util::ThreadPool>(threads < 0 ? 0 : threads);
}

void TopoAwareScheduler::refresh_cache_epoch(
    const cluster::ClusterState& state) {
  // One cache generation per (state object, allocation epoch): any
  // place/remove changes co-runners, link flows and free sets, all of
  // which feed the utility, so the whole cache is flushed.
  if (cache_state_id_ != state.instance_id() ||
      cache_version_ != state.allocation_version()) {
    if (!cache_.empty()) {
      ++cache_stats_.invalidations;
      GTS_METRIC_COUNT("cache.invalidations", 1);
      GTS_TRACE_INSTANT(obs::kCache, "cache.flush");
      cache_.clear();
    }
    cache_state_id_ = state.instance_id();
    cache_version_ = state.allocation_version();
  }
}

std::optional<Placement> TopoAwareScheduler::map_onto(
    const jobgraph::JobRequest& request, const std::vector<int>& available,
    const cluster::ClusterState& state) {
  if (!cache_enabled_) {
    ++scoring_.scored;
    return drb_place(request, available, state, utility_, &stats_);
  }

  refresh_cache_epoch(state);

  ++cache_stats_.lookups;
  GTS_METRIC_COUNT("cache.lookups", 1);
  const PlacementCacheKey key = hashed_placement_cache_key(request, available);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    return replay_cache_entry(it->second, request);
  }
  ++scoring_.scored;
  std::optional<Placement> placement =
      drb_place(request, available, state, utility_, &stats_);
  cache_.emplace(key, CacheEntry::of(placement));
  return placement;
}

std::optional<Placement> TopoAwareScheduler::replay_cache_entry(
    const CacheEntry& entry, const jobgraph::JobRequest& request) {
  ++cache_stats_.hits;
  GTS_METRIC_COUNT("cache.hits", 1);
  GTS_TRACE_INSTANT(obs::kCache, "cache.hit", "job", request.id);
  std::optional<Placement> placement = entry.placement(request);
  if (placement) explain_candidate(*placement, "cache");
  return placement;
}

std::optional<Placement> TopoAwareScheduler::place_on_best_machine(
    const jobgraph::JobRequest& request, const cluster::ClusterState& state) {
  const topo::TopologyGraph& topology = state.topology();

  // Cheap pre-score per feasible machine: can the job land on one socket
  // (pack), how many co-runners would interfere, how much capacity is
  // left. Lower is better; ties break on machine id for determinism.
  struct Candidate {
    long long score;
    int machine;
    std::vector<int> free;  // free GPUs, reused by the evaluation pass
  };
  std::vector<Candidate> candidates;
  std::vector<int> socket_free_scratch;
  for (int machine = 0; machine < topology.machine_count(); ++machine) {
    // Section 4.3 capacity constraints: GPUs and host memory bandwidth.
    if (state.machine_free_count(machine) < request.num_gpus ||
        !state.host_bw_available(machine,
                                 request.profile.host_bw_demand_gbps)) {
      continue;
    }
    std::vector<int> free = state.free_gpus_of_machine(machine);
    socket_free_scratch.assign(
        static_cast<size_t>(topology.sockets_of_machine(machine)) + 1, 0);
    int best_socket_free = 0;
    for (const int gpu : free) {
      const size_t socket = static_cast<size_t>(topology.socket_of_gpu(gpu));
      if (socket >= socket_free_scratch.size()) {
        socket_free_scratch.resize(socket + 1, 0);
      }
      best_socket_free = std::max(best_socket_free, ++socket_free_scratch[socket]);
    }
    const bool can_pack = best_socket_free >= request.num_gpus ||
                          request.num_gpus > 2;  // >2 GPUs spans sockets anyway
    const long long co_runners =
        static_cast<long long>(state.jobs_of_machine(machine).size());
    const long long score = (can_pack ? 0 : 1000000) + co_runners * 100 +
                            static_cast<long long>(free.size());
    candidates.push_back({score, machine, std::move(free)});
  }
  if (candidates.empty()) return std::nullopt;
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score != b.score ? a.score < b.score
                                        : a.machine < b.machine;
            });
  if (static_cast<int>(candidates.size()) > candidate_limit) {
    candidates.resize(static_cast<size_t>(candidate_limit));
  }

  // Three phases (DESIGN.md §17.1) make the decision independent of the
  // scoring pool:
  //
  //   1. probe  (decision thread): cache lookups in candidate order —
  //      hits are resolved from the cache, misses collected. A miss on an
  //      empty machine whose class an earlier empty candidate already
  //      holds is a twin: it will take that candidate's result;
  //   2. score: drb_evaluate over each miss that is not a twin, writing
  //      only that miss's slot (placement + DrbStats). Without a pool, or
  //      with fewer than 2 such misses, they are scored inline; otherwise
  //      they are chunked deterministically over the pool, where FmScratch
  //      comes from each worker's thread-local arena;
  //   3. reduce (decision thread): twin translations, cache inserts, stats
  //      folds, explain entries and the first-maximum reduction, all in
  //      candidate order.
  //
  // A twin's result is exact: on a single machine, DRB and the utility
  // read only that machine's GPUs, distances, socket lists, co-runners
  // and link flows. Machines of one class agree on the structure up to
  // the order-keeping local translation, and an empty machine has no
  // co-runners or flows.
  struct Slot {
    const Candidate* candidate = nullptr;
    bool hit = false;
    int twin_of = -1;                 // slot whose result a twin reuses
    CacheEntry entry;                 // valid when hit
    PlacementCacheKey key;            // misses, with the cache on
    std::optional<Placement> result;  // scored placement (miss)
    partition::DrbStats stats;        // slot-local DRB counters (miss)
  };
  std::vector<Slot> slots(candidates.size());
  std::vector<int> misses;
  misses.reserve(candidates.size());
  // (machine class, slot) of the first empty candidate of each class.
  std::vector<std::pair<int, int>> representatives;
  if (cache_enabled_) refresh_cache_epoch(state);
  for (size_t i = 0; i < candidates.size(); ++i) {
    Slot& slot = slots[i];
    slot.candidate = &candidates[i];
    if (cache_enabled_) {
      ++cache_stats_.lookups;
      GTS_METRIC_COUNT("cache.lookups", 1);
      slot.key = hashed_placement_cache_key(request, slot.candidate->free);
      if (const auto it = cache_.find(slot.key); it != cache_.end()) {
        slot.hit = true;
        slot.entry = it->second;
      }
    }
    const int machine = slot.candidate->machine;
    if (state.jobs_of_machine(machine).empty()) {
      GTS_DCHECK(slot.candidate->free == topology.gpus_of_machine(machine));
      const int shape = topology.machine_class(machine);
      const auto representative = std::find_if(
          representatives.begin(), representatives.end(),
          [shape](const std::pair<int, int>& r) { return r.first == shape; });
      if (representative == representatives.end()) {
        representatives.emplace_back(shape, static_cast<int>(i));
      } else if (!slot.hit) {
        slot.twin_of = representative->second;
      }
    }
    if (!slot.hit && slot.twin_of < 0) misses.push_back(static_cast<int>(i));
  }

  const int miss_count = static_cast<int>(misses.size());
  const auto score = [&slots, &misses, &request, &state, this](int i) {
    Slot& slot = slots[static_cast<size_t>(misses[static_cast<size_t>(i)])];
    slot.result = drb_evaluate(request, slot.candidate->free, state,
                               utility_, &slot.stats);
  };
  if (scoring_pool_ == nullptr || miss_count < 2) {
    for (int i = 0; i < miss_count; ++i) score(i);
  } else {
    // The topology's distance tables are lazily built mutable caches;
    // materialize them on this thread before concurrent readers arrive.
    topology.warm_caches();
    const int chunk_count = std::min(
        miss_count, std::max(1, 2 * scoring_pool_->thread_count()));
    obs::SpanGuard fan_span(obs::kSched, "sched.parallel_score");
    fan_span.arg("candidates", static_cast<double>(miss_count))
        .arg("chunks", static_cast<double>(chunk_count));
    GTS_METRIC_COUNT("sched.parallel_chunks", chunk_count);
    util::parallel_for(
        *scoring_pool_, chunk_count,
        [&score, miss_count, chunk_count](int chunk) {
          const int begin = chunk * miss_count / chunk_count;
          const int end = (chunk + 1) * miss_count / chunk_count;
          obs::SpanGuard span(obs::kSched, "sched.score_chunk");
          span.arg("chunk", static_cast<double>(chunk))
              .arg("candidates", static_cast<double>(end - begin));
          for (int i = begin; i < end; ++i) score(i);
        });
  }

  // Each twin takes its representative's placement (scored above or a
  // cache hit), moved to the twin's machine by local GPU index.
  for (Slot& slot : slots) {
    if (slot.twin_of < 0) continue;
    const Slot& representative = slots[static_cast<size_t>(slot.twin_of)];
    slot.result = representative.hit ? representative.entry.placement(request)
                                     : representative.result;
    if (slot.result) {
      const std::vector<int>& target =
          topology.gpus_of_machine(slot.candidate->machine);
      for (int& gpu : slot.result->gpus) {
        gpu = target[static_cast<size_t>(topology.local_gpu_of(gpu))];
      }
    }
  }

  std::optional<Placement> best;
  for (Slot& slot : slots) {
    std::optional<Placement> placement;
    if (slot.hit) {
      placement = replay_cache_entry(slot.entry, request);
    } else {
      if (slot.twin_of >= 0) {
        ++scoring_.twin_reuses;
        GTS_METRIC_COUNT("sched.twin_reuses", 1);
      } else {
        ++scoring_.scored;
      }
      if (cache_enabled_) {
        cache_.emplace(slot.key, CacheEntry::of(slot.result));
      }
      stats_.bipartitions += slot.stats.bipartitions;
      stats_.fm_passes += slot.stats.fm_passes;
      stats_.max_depth = std::max(stats_.max_depth, slot.stats.max_depth);
      placement = std::move(slot.result);
      // The entry drb_place() writes for a mapped placement.
      if (placement) explain_candidate(*placement, "drb");
    }
    if (!placement) continue;
    explain_candidate(*placement, "best-machine:", slot.candidate->machine);
    // Strict `>` keeps the FIRST maximum in candidate order.
    if (!best || placement->utility > best->utility) {
      best = std::move(placement);
    }
  }
  return best;
}

}  // namespace gts::sched
