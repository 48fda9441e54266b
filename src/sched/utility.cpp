#include "sched/utility.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "perf/profile.hpp"

namespace gts::sched {

namespace {

constexpr double kFloor = 1e-3;  // keeps log terms finite

double clamp01(double v) { return std::clamp(v, kFloor, 1.0); }

/// Per-thread scratch of UtilityModel::interference: nothing mutable is
/// shared between concurrent scorers, and no call allocates once warm.
struct InterferenceScratch {
  cluster::CoRunnerScratch candidate;  // the candidate placement's gather
  cluster::CoRunnerScratch job;        // one affected job's co-runners
  std::vector<topo::LinkId> links;     // candidate flows, flattened
  std::vector<std::pair<topo::LinkId, int>> candidate_counts;
  std::vector<std::pair<topo::LinkId, int>> delta;  // own - candidate
};

/// `own` minus `candidate`, both sorted by link, into `delta` (sorted by
/// link; a negative count adds the candidate's flows on read).
void merge_delta(perf::FlowDelta own, perf::FlowDelta candidate,
                 std::vector<std::pair<topo::LinkId, int>>& delta) {
  delta.clear();
  size_t i = 0;
  size_t j = 0;
  while (i < own.size() || j < candidate.size()) {
    if (j == candidate.size() ||
        (i < own.size() && own[i].first < candidate[j].first)) {
      delta.push_back(own[i++]);
    } else if (i == own.size() || candidate[j].first < own[i].first) {
      delta.emplace_back(candidate[j].first, -candidate[j].second);
      ++j;
    } else {
      delta.emplace_back(own[i].first, own[i].second - candidate[j].second);
      ++i;
      ++j;
    }
  }
}

}  // namespace

double normalized_comm_weight(const jobgraph::JobRequest& request) {
  if (request.comm_graph.edge_count() == 0) return 0.0;
  double max_weight = 0.0;
  for (const jobgraph::CommEdge& edge : request.comm_graph.edges()) {
    max_weight = std::max(max_weight, edge.weight);
  }
  // Section 5.1 uses weights in [1, 4]; anything above 4 saturates.
  return std::clamp(max_weight / 4.0, 0.0, 1.0);
}

double UtilityModel::comm_cost(const topo::TopologyGraph& topology,
                               std::span<const int> gpus) {
  double total = 0.0;
  for (size_t i = 0; i < gpus.size(); ++i) {
    for (size_t j = i + 1; j < gpus.size(); ++j) {
      total += topology.gpu_distance(gpus[i], gpus[j]);
    }
  }
  return total;
}

double UtilityModel::best_comm_cost(const topo::TopologyGraph& topology,
                                    int num_gpus) {
  const std::vector<int> pack = perf::pack_placement(topology, num_gpus);
  if (static_cast<int>(pack.size()) < num_gpus) return 0.0;
  return comm_cost(topology, pack);
}

double UtilityModel::interference(const jobgraph::JobRequest& request,
                                  std::span<const int> gpus,
                                  const cluster::ClusterState& state) const {
  // Eq. 4: I = sum_{j in running+candidate} solo(j)/colloc(j) / (n+1).
  const topo::TopologyGraph& topology = state.topology();
  thread_local InterferenceScratch scratch;
  double ratio_sum = 0.0;
  int count = 0;

  // Candidate's own ratio under the hypothetical placement. The
  // prediction leaves the candidate's co-runner gather in
  // scratch.candidate: the jobs on its machines (taken from the
  // per-machine index, so cost scales with touched machines, not cluster
  // size) and whether each shares a socket with it.
  {
    const double best = state.solo_iteration_time(request);
    const double predicted =
        state.predict_iteration(request, gpus, scratch.candidate).total_s;
    ratio_sum += (best > 0.0 && predicted > 0.0)
                     ? std::min(1.0, best / predicted)
                     : 1.0;
    ++count;
  }

  // The candidate's flows, condensed once.
  scratch.links.clear();
  for (const jobgraph::CommEdge& edge : request.comm_graph.edges()) {
    const topo::GpuPath& path =
        topology.gpu_path(gpus[static_cast<size_t>(edge.a)],
                          gpus[static_cast<size_t>(edge.b)]);
    scratch.links.insert(scratch.links.end(), path.links.begin(),
                         path.links.end());
  }
  perf::condense_flows(scratch.links, scratch.candidate_counts);

  // Each running job that shares a machine with the candidate placement.
  // co[k] is the k-th of them (the gather skips request.id), flagged with
  // whether it shares a socket with the candidate.
  const std::vector<perf::CoRunner>& candidate_co = scratch.candidate.co;
  size_t k = 0;
  for (const int id : scratch.candidate.ids) {
    if (id == request.id) continue;
    const bool candidate_shares_socket = candidate_co[k++].same_socket;
    const cluster::RunningJob& job = state.running_jobs().at(id);
    // Its co-runners now include the candidate.
    state.co_runners_into(job.gpus, id, scratch.job);
    scratch.job.co.push_back({request.profile.batch, candidate_shares_socket});
    // Foreign flows for this job = all flows - its own + the candidate's,
    // applied on read as one signed delta (perf::FlowDelta) in integers
    // before any division: no copy of the flow table.
    merge_delta(job.flow_link_counts, scratch.candidate_counts,
                scratch.delta);

    const double solo = job.solo_iteration_s;
    const double colloc =
        state.model()
            .iteration(job.request, job.gpus, topology, &state.link_flows(),
                       scratch.job.co, scratch.delta)
            .total_s;
    ratio_sum += (solo > 0.0 && colloc > 0.0)
                     ? std::min(1.0, solo / colloc)
                     : 1.0;
    ++count;
  }
  return count == 0 ? 1.0 : ratio_sum / count;
}

double UtilityModel::combine(double u_comm, double u_interference,
                             double u_frag, double comm_weight) const {
  const double wc = weights_.alpha_cc * comm_weight;
  const double wb = weights_.alpha_b;
  const double wd = weights_.alpha_d;
  const double denom = wc + wb + wd;
  if (denom <= 0.0) return 1.0;
  const double log_utility =
      (wc * std::log(clamp01(u_comm)) + wb * std::log(clamp01(u_interference)) +
       wd * std::log(clamp01(u_frag))) /
      denom;
  return std::exp(log_utility);
}

UtilityBreakdown UtilityModel::evaluate(
    const jobgraph::JobRequest& request, std::span<const int> gpus,
    const cluster::ClusterState& state) const {
  const topo::TopologyGraph& topology = state.topology();
  UtilityBreakdown out;
  out.comm_weight = normalized_comm_weight(request);

  out.comm_cost = comm_cost(topology, gpus);
  const double best = best_comm_cost(topology, request.num_gpus);
  out.comm_utility =
      (out.comm_cost > 0.0 && best > 0.0) ? best / out.comm_cost : 1.0;

  out.interference = interference(request, gpus, state);

  // Eq. 5 over the sockets of the machines the placement touches, after
  // the hypothetical allocation.
  out.frag_omega = state.fragmentation_after(gpus);
  out.frag_utility = 1.0 - out.frag_omega;

  out.utility = combine(out.comm_utility, out.interference, out.frag_utility,
                        out.comm_weight);

  // Eq. 1 (minimization form) for diagnostics: all terms normalized to
  // their worst case.
  {
    const size_t n = gpus.size();
    const double pairs = static_cast<double>(n * (n - 1) / 2);
    const double worst_cost = pairs * topology.max_gpu_distance();
    const double t_norm =
        worst_cost > 0.0 ? out.comm_cost / worst_cost : 0.0;
    out.objective = weights_.alpha_cc * t_norm +
                    weights_.alpha_b * (1.0 - out.interference) +
                    weights_.alpha_d * out.frag_omega;
  }
  return out;
}

double UtilityModel::placement_utility(const jobgraph::JobRequest& request,
                                       std::span<const int> gpus,
                                       const cluster::ClusterState& state) const {
  return evaluate(request, gpus, state).utility;
}

}  // namespace gts::sched
