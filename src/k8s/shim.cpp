#include "k8s/shim.hpp"

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
  return node >= 0 && node < topology_.machine_count() &&
         sched::host_fits(job, state, node);
}

int KubeTopologyScheduler::score(const jobgraph::JobRequest& job,
                                 const cluster::ClusterState& state,
                                 int node) const {
  // One utility-driven DRB mapping restricted to the node's free GPUs,
  // exactly what TOPO-AWARE's scalable path evaluates per candidate.
  if (!filter(job, state, node) ||
      state.machine_free_count(node) < job.num_gpus) {
    return 0;
  }
  const auto placement =
      sched::drb_evaluate(job, state.free_gpus_of_machine(node), state,
                          sched::UtilityModel(weights_));
  if (!placement) return 0;
  return static_cast<int>(std::lround(placement->utility * 100.0));
}

std::optional<Binding> KubeTopologyScheduler::bind(
    const jobgraph::JobRequest& job,
    const cluster::ClusterState& state) const {
  sched::TopoAwareScheduler scheduler(weights_, /*postpone=*/true);
  const std::optional<sched::Placement> placement = scheduler.place(job, state);
  if (!placement) return std::nullopt;

  Binding binding;
  binding.global_gpu_ids = placement->gpus;
  binding.score = std::lround(placement->utility * 100.0);
  for (const int gpu : placement->gpus) {
    binding.nodes.push_back(topology_.machine_of_gpu(gpu));
    binding.device_ids.push_back(
        topology_.node(topology_.gpu_node(gpu)).local_gpu);
  }
  binding.environment =
      proto::make_enforcement_plan(topology_, placement->gpus).environment;
  return binding;
}

}  // namespace gts::k8s
