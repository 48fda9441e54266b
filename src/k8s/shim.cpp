#include "k8s/shim.hpp"

#include <algorithm>
#include <cmath>

#include "perf/profile.hpp"
#include "proto/enforcement.hpp"
#include "util/strings.hpp"

namespace gts::k8s {

namespace {

std::string annotation_or(const GpuPodSpec& pod, const std::string& key,
                          const std::string& fallback) {
  const auto it = pod.annotations.find(key);
  return it == pod.annotations.end() ? fallback : it->second;
}

bool annotation_bool(const GpuPodSpec& pod, const std::string& key) {
  return util::to_lower(annotation_or(pod, key, "false")) == "true";
}

}  // namespace

util::Expected<jobgraph::JobRequest> KubeTopologyScheduler::pod_to_job(
    const GpuPodSpec& pod, int job_id) const {
  if (pod.gpu_request < 1) {
    return util::Error{
        util::fmt("pod {}: nvidia.com/gpu request must be >= 1", pod.name)};
  }
  const auto nn = jobgraph::neural_net_from_string(
      annotation_or(pod, "gts.io/nn", "AlexNet"));
  if (!nn) {
    return util::Error{util::fmt("pod {}: unknown gts.io/nn '{}'", pod.name,
                                 annotation_or(pod, "gts.io/nn", ""))};
  }
  const auto batch =
      util::parse_int(annotation_or(pod, "gts.io/batch-size", "1"));
  if (!batch || *batch < 1) {
    return util::Error{
        util::fmt("pod {}: bad gts.io/batch-size", pod.name)};
  }
  const auto min_utility =
      util::parse_double(annotation_or(pod, "gts.io/min-utility", "0"));
  if (!min_utility || *min_utility < 0.0 || *min_utility > 1.0) {
    return util::Error{
        util::fmt("pod {}: gts.io/min-utility must be in [0,1]", pod.name)};
  }
  const auto iterations =
      util::parse_int(annotation_or(pod, "gts.io/iterations", "4000"));
  if (!iterations || *iterations < 1) {
    return util::Error{util::fmt("pod {}: bad gts.io/iterations", pod.name)};
  }

  jobgraph::JobRequest job = perf::make_profiled_dl(
      job_id, /*arrival=*/0.0, *nn, static_cast<int>(*batch),
      pod.gpu_request, *min_utility, model_, topology_, *iterations);
  job.profile.single_node = !annotation_bool(pod, "gts.io/multi-node");
  job.profile.anti_collocate = annotation_bool(pod, "gts.io/anti-affinity");
  return job;
}

bool KubeTopologyScheduler::filter(const jobgraph::JobRequest& job,
                                   const cluster::ClusterState& state,
                                   int node) const {
  if (node < 0 || node >= topology_.machine_count()) return false;
  // Section 4.3 capacity constraints, per node.
  if (!state.host_bw_available(node, job.profile.host_bw_demand_gbps)) {
    return false;
  }
  const int free = state.machine_free_count(node);
  if (job.profile.anti_collocate) return free >= 1;
  return free >= job.num_gpus;
}

std::optional<sched::Placement> KubeTopologyScheduler::place_in_node(
    const jobgraph::JobRequest& job, const cluster::ClusterState& state,
    int node) const {
  // One utility-driven DRB mapping restricted to the node's free GPUs —
  // exactly what the TOPO-AWARE scheduler's scalable path evaluates per
  // candidate machine.
  if (state.machine_free_count(node) < job.num_gpus) return std::nullopt;
  const std::vector<int> free = state.free_gpus_of_machine(node);
  const sched::UtilityModel utility(weights_);
  return sched::drb_place(job, free, state, utility);
}

int KubeTopologyScheduler::score(const jobgraph::JobRequest& job,
                                 const cluster::ClusterState& state,
                                 int node) const {
  if (!filter(job, state, node)) return 0;
  const auto placement = place_in_node(job, state, node);
  if (!placement) return 0;
  return static_cast<int>(std::lround(placement->utility * 100.0));
}

std::optional<Binding> KubeTopologyScheduler::bind(
    const jobgraph::JobRequest& job,
    const cluster::ClusterState& state) const {
  int best_node = -1;
  std::optional<sched::Placement> best_placement;
  for (int node = 0; node < topology_.machine_count(); ++node) {
    if (!filter(job, state, node)) continue;
    auto placement = place_in_node(job, state, node);
    if (!placement) continue;
    if (!best_placement || placement->utility > best_placement->utility) {
      best_placement = std::move(placement);
      best_node = node;
    }
  }
  if (!best_placement) return std::nullopt;
  if (!best_placement->satisfied) {
    // TOPO-AWARE-P semantics: leave the pod Pending rather than bind a
    // below-SLO allocation.
    return std::nullopt;
  }

  Binding binding;
  binding.node = best_node;
  binding.global_gpu_ids = best_placement->gpus;
  binding.score =
      std::lround(best_placement->utility * 100.0);
  for (const int gpu : best_placement->gpus) {
    binding.device_ids.push_back(
        topology_.node(topology_.gpu_node(gpu)).local_gpu);
  }
  binding.environment =
      proto::make_enforcement_plan(topology_, best_placement->gpus)
          .environment;
  return binding;
}

}  // namespace gts::k8s
