#include "sched/topo_aware.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
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
  // ownership of the replica's counters and memo for the whole decision.
  const util::SerialGuard guard(replica_serial_);
  std::optional<Placement> placement;
  if (request.profile.single_node && !request.profile.anti_collocate &&
      state.topology().machine_count() > direct_drb_machine_limit) {
    placement = place_on_best_machine(request, state);
  } else {
    const std::vector<int> available = filter_hosts(request, state);
    if (static_cast<int>(available.size()) < request.num_gpus) {
      return std::nullopt;
    }
    ++scoring_.scored;
    placement = drb_evaluate(request, available, state, utility_, &stats_);
    if (placement) explain_candidate(*placement, "drb");
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

std::size_t TopoAwareScheduler::ShapeHash::operator()(
    const std::vector<std::uint64_t>& key) const {
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a over words
  for (const std::uint64_t word : key) {
    hash = (hash ^ word) * 1099511628211ULL;
  }
  return static_cast<std::size_t>(hash ^ (hash >> 32));
}

void TopoAwareScheduler::memo_shape_key(const jobgraph::JobRequest& request,
                                        std::vector<std::uint64_t>& key) {
  const jobgraph::JobProfile& profile = request.profile;
  const auto word = [](auto value) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(value));
  };
  key.assign({word(request.num_gpus), word(request.iterations),
              word(profile.nn), word(profile.batch), word(profile.batch_size),
              std::bit_cast<std::uint64_t>(profile.comm_weight),
              std::bit_cast<std::uint64_t>(profile.solo_time_pack),
              word(span_mode(profile)), word(request.comm_graph.task_count()),
              word(request.comm_graph.edge_count())});
  for (const jobgraph::CommEdge& edge : request.comm_graph.edges()) {
    key.insert(key.end(), {word(edge.a), word(edge.b),
                           std::bit_cast<std::uint64_t>(edge.weight)});
  }
}

TopoAwareScheduler::ClassResults* TopoAwareScheduler::find_shape(
    const jobgraph::JobRequest& request) {
  memo_shape_key(request, shape_key_);
  const auto found = memo_.find(shape_key_);
  return found == memo_.end() ? nullptr : &found->second;
}

TopoAwareScheduler::ClassResults* TopoAwareScheduler::store_result(
    ClassResults* shape, int machine,
    const std::optional<Placement>& placement,
    const topo::TopologyGraph& topology) {
  if (memo_entries_ >= empty_memo_cap) {
    memo_.clear();
    memo_entries_ = 0;
    shape = nullptr;
  }
  if (shape == nullptr) shape = &memo_[shape_key_];
  EmptyResult& result = (*shape)[topology.machine_class(machine)];
  ++memo_entries_;
  if (placement) {
    result.placed = true;
    for (const int gpu : placement->gpus) {
      result.local_gpus.push_back(topology.local_gpu_of(gpu));
    }
    result.utility = placement->utility;
  }
  return shape;
}

std::optional<Placement> TopoAwareScheduler::place_on_best_machine(
    const jobgraph::JobRequest& request, const cluster::ClusterState& state) {
  const topo::TopologyGraph& topology = state.topology();

  // Cheap pre-score per feasible machine, read from the capacity index:
  // can the job land on one socket (pack), how many co-runners would
  // interfere, how much capacity is left. Lower is better; ties break on
  // machine id, so (score, machine) is a strict total order and
  // partial_sort keeps exactly the candidates, in exactly the order, that
  // sorting all of them and truncating would.
  std::vector<std::pair<long long, int>> candidates;  // (score, machine)
  for (int machine = 0; machine < topology.machine_count(); ++machine) {
    if (!host_fits(request, state, machine)) continue;
    const int free = state.machine_free_count(machine);
    const std::span<const int> sockets = state.socket_free_counts(machine);
    const int best_socket_free =
        sockets.empty() ? 0 : *std::max_element(sockets.begin(), sockets.end());
    const bool can_pack = best_socket_free >= request.num_gpus ||
                          request.num_gpus > 2;  // >2 GPUs spans sockets anyway
    const long long co_runners =
        static_cast<long long>(state.jobs_of_machine(machine).size());
    candidates.emplace_back(
        (can_pack ? 0 : 1000000) + co_runners * 100 + free, machine);
  }
  if (candidates.empty()) return std::nullopt;
  const auto kept =
      candidates.begin() +
      std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(candidates.size()),
                               candidate_limit);
  std::partial_sort(candidates.begin(), kept, candidates.end());
  candidates.erase(kept, candidates.end());

  // The memo holds results for one topology and one model.
  if (memo_topology_ != topology.instance_tag() ||
      memo_model_ != state.model().instance_tag()) {
    memo_.clear();
    memo_entries_ = 0;
    memo_topology_ = topology.instance_tag();
    memo_model_ = state.model().instance_tag();
  }

  // One pass in candidate order (DESIGN.md §17.1). An empty candidate
  // (no running job, no flow on any of its links) takes the memo's result
  // for its class and the job's shape, moved onto its GPUs by local
  // index; a miss runs DRB and stores the result. Occupied candidates
  // always run DRB.
  ClassResults* shape = nullptr;
  bool shape_found = false;
  std::optional<Placement> best;
  for (const auto& [score, machine] : candidates) {
    const bool empty =
        state.jobs_of_machine(machine).empty() &&
        std::ranges::none_of(topology.links_of_machine(machine),
                             [&](topo::LinkId link) {
                               return state.link_flows()[static_cast<size_t>(
                                          link)] != 0;
                             });
    const EmptyResult* memo = nullptr;
    if (empty) {
      GTS_DCHECK(state.machine_free_count(machine) ==
                 static_cast<int>(topology.gpus_of_machine(machine).size()));
      if (!shape_found) {
        shape = find_shape(request);
        shape_found = true;
      }
      if (shape != nullptr) {
        const auto hit = shape->find(topology.machine_class(machine));
        if (hit != shape->end()) memo = &hit->second;
      }
    }
    std::optional<Placement> placement;
    if (memo != nullptr) {
      ++scoring_.twin_reuses;
      GTS_METRIC_COUNT("sched.twin_reuses", 1);
      if (memo->placed) {
        const std::vector<int>& target = topology.gpus_of_machine(machine);
        placement.emplace();
        for (const int local : memo->local_gpus) {
          placement->gpus.push_back(target[static_cast<size_t>(local)]);
        }
        placement->utility = memo->utility;
        placement->satisfied =
            placement->utility + 1e-9 >= request.min_utility;
      }
    } else {
      ++scoring_.scored;
      placement = drb_evaluate(request, state.free_gpus_of_machine(machine),
                               state, utility_, &stats_);
      if (empty) shape = store_result(shape, machine, placement, topology);
    }
    if (!placement) continue;
    // The entry the direct path writes for a mapped placement.
    explain_candidate(*placement, "drb");
    explain_candidate(*placement, "best-machine:", machine);
    // Strict `>` keeps the FIRST maximum in candidate order.
    if (!best || placement->utility > best->utility) {
      best = std::move(placement);
    }
  }
  return best;
}

}  // namespace gts::sched
