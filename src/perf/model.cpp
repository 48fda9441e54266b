#include "perf/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "check/check.hpp"

namespace gts::perf {

namespace {

const NnParams& nn_params(const CalibrationParams& params,
                          jobgraph::NeuralNet nn) {
  return params.nn[static_cast<size_t>(nn)];
}

/// Signed count of `link` in a sorted FlowDelta, 0 when absent.
int excluded_count(FlowDelta exclude_flows, topo::LinkId link) {
  const auto it = std::lower_bound(
      exclude_flows.begin(), exclude_flows.end(), link,
      [](const std::pair<topo::LinkId, int>& entry, topo::LinkId key) {
        return entry.first < key;
      });
  return (it != exclude_flows.end() && it->first == link) ? it->second : 0;
}

/// classify_path's rule applied to the already routed `path` of the pair.
PathClass path_class(const topo::TopologyGraph& topology,
                     const topo::GpuPath& path, int gpu_a, int gpu_b) {
  if (path.peer_to_peer) return PathClass::kPeerToPeer;
  if (!topology.same_machine(gpu_a, gpu_b)) return PathClass::kCrossMachine;
  if (topology.same_socket(gpu_a, gpu_b)) return PathClass::kSameSocketHost;
  // Cross-socket within a machine: NVLink-host machines stage via NVLink
  // H2D legs, PCI-e machines via PCI-e legs. Inspect the GPU-adjacent link.
  for (const topo::LinkId link_id : path.links) {
    const topo::Link& link = topology.link(link_id);
    const bool touches_gpu =
        topology.node(link.a).kind == topo::NodeKind::kGpu ||
        topology.node(link.b).kind == topo::NodeKind::kGpu;
    if (touches_gpu) {
      return link.kind == topo::LinkKind::kNvlink
                 ? PathClass::kCrossSocketNvlinkHost
                 : PathClass::kCrossSocketPcieHost;
    }
  }
  return PathClass::kCrossSocketPcieHost;
}

double class_efficiency(const PathEfficiency& efficiency, PathClass cls) {
  switch (cls) {
    case PathClass::kPeerToPeer:
      return efficiency.peer_to_peer;
    case PathClass::kSameSocketHost:
      return efficiency.same_socket_host;
    case PathClass::kCrossSocketNvlinkHost:
      return efficiency.cross_socket_nvlink_host;
    case PathClass::kCrossSocketPcieHost:
      return efficiency.cross_socket_pcie_host;
    case PathClass::kCrossMachine:
      return efficiency.cross_machine;
  }
  return 1.0;
}

/// effective_bandwidth's rule applied to the already routed and
/// classified `path` of the pair.
double path_bandwidth(const topo::TopologyGraph& topology,
                      const PathEfficiency& efficiency,
                      const topo::GpuPath& path, PathClass cls,
                      const LinkFlows* extra_flows, FlowDelta exclude_flows) {
  if (path.links.empty()) return 0.0;

  // Bottleneck bandwidth under fair link sharing with foreign flows.
  double bottleneck = path.bottleneck_gbps;
  if (extra_flows != nullptr) {
    bottleneck = std::numeric_limits<double>::infinity();
    for (const topo::LinkId link_id : path.links) {
      int foreign =
          link_id < static_cast<int>(extra_flows->size())
              ? (*extra_flows)[static_cast<size_t>(link_id)]
              : 0;
      if (!exclude_flows.empty()) {
        foreign -= excluded_count(exclude_flows, link_id);
      }
      const double share = topology.link(link_id).bandwidth_gbps /
                           static_cast<double>(foreign + 1);
      bottleneck = std::min(bottleneck, share);
    }
  }
  return bottleneck * class_efficiency(efficiency, cls);
}

}  // namespace

void condense_flows(std::vector<topo::LinkId>& links,
                    std::vector<std::pair<topo::LinkId, int>>& counts) {
  std::sort(links.begin(), links.end());
  counts.clear();
  for (size_t i = 0; i < links.size();) {
    size_t j = i;
    while (j < links.size() && links[j] == links[i]) ++j;
    counts.emplace_back(links[i], static_cast<int>(j - i));
    i = j;
  }
}

double DlWorkloadModel::compute_time(jobgraph::NeuralNet nn,
                                     int batch_size) const {
  const NnParams& p = nn_params(params_, nn);
  return params_.compute_scale *
         (p.compute_base_s + p.compute_per_sample_s * batch_size);
}

PathClass DlWorkloadModel::classify_path(const topo::TopologyGraph& topology,
                                         int gpu_a, int gpu_b) const {
  return path_class(topology, topology.gpu_path(gpu_a, gpu_b), gpu_a, gpu_b);
}

double DlWorkloadModel::effective_bandwidth(
    const topo::TopologyGraph& topology, int gpu_a, int gpu_b,
    const LinkFlows* extra_flows, FlowDelta exclude_flows) const {
  const topo::GpuPath& path = topology.gpu_path(gpu_a, gpu_b);
  return path_bandwidth(topology, params_.efficiency, path,
                        path_class(topology, path, gpu_a, gpu_b), extra_flows,
                        exclude_flows);
}

double DlWorkloadModel::interference_factor(
    jobgraph::BatchClass mine, std::span<const CoRunner> others) const {
  double factor = 1.0;
  for (const CoRunner& other : others) {
    double slowdown = params_.interference[static_cast<size_t>(mine)]
                                          [static_cast<size_t>(other.batch)];
    if (other.same_socket) slowdown *= params_.socket_interference_boost;
    factor *= 1.0 + slowdown;
  }
  return factor;
}

IterationBreakdown DlWorkloadModel::iteration(
    const jobgraph::JobRequest& job, std::span<const int> gpus,
    const topo::TopologyGraph& topology, const LinkFlows* extra_flows,
    std::span<const CoRunner> co_runners, FlowDelta exclude_flows) const {
  GTS_DCHECK_EQ(static_cast<int>(gpus.size()), job.comm_graph.task_count());

  IterationBreakdown out;
  out.compute_s = compute_time(job.profile.nn, job.profile.batch_size);

  // Synchronous step: every communicating pair exchanges its share of the
  // model's traffic volume and the iteration blocks on the slowest pair.
  // Edge weights denote communication volume (Section 4.1.1): a pair
  // whose weight exceeds the job's nominal class weight moves
  // proportionally more data — data-parallel graphs have uniform weights
  // (ratio 1), model-parallel graphs can skew per stage.
  const NnParams& nn = nn_params(params_, job.profile.nn);
  const double reference_weight =
      job.profile.comm_weight > 0.0 ? job.profile.comm_weight : 1.0;
  double worst_time = 0.0;
  out.effective_bw_gbps = std::numeric_limits<double>::infinity();
  for (const jobgraph::CommEdge& edge : job.comm_graph.edges()) {
    // One route lookup per pair feeds its bandwidth, class and P2P flag.
    const int gpu_a = gpus[static_cast<size_t>(edge.a)];
    const int gpu_b = gpus[static_cast<size_t>(edge.b)];
    const topo::GpuPath& path = topology.gpu_path(gpu_a, gpu_b);
    const PathClass cls = path_class(topology, path, gpu_a, gpu_b);
    const double bw = path_bandwidth(topology, params_.efficiency, path, cls,
                                     extra_flows, exclude_flows);
    if (bw <= 0.0) continue;
    const double volume_gb =
        nn.grad_volume_gb * (edge.weight / reference_weight);
    const double pair_time = volume_gb / bw;
    if (pair_time > worst_time) {
      worst_time = pair_time;
      out.worst_path = cls;
      out.effective_bw_gbps = bw;
    }
    if (!path.peer_to_peer) out.all_pairs_p2p = false;
  }
  if (job.comm_graph.edge_count() == 0) {
    out.effective_bw_gbps = 0.0;
  }
  out.comm_s = worst_time;

  out.interference_factor = interference_factor(job.profile.batch, co_runners);
  out.total_s = (out.compute_s + out.comm_s) * out.interference_factor;
  return out;
}

double DlWorkloadModel::completion_time(
    const jobgraph::JobRequest& job, std::span<const int> gpus,
    const topo::TopologyGraph& topology, const LinkFlows* extra_flows,
    std::span<const CoRunner> co_runners) const {
  const IterationBreakdown step =
      iteration(job, gpus, topology, extra_flows, co_runners);
  return step.total_s * static_cast<double>(job.iterations);
}

double DlWorkloadModel::bytes_per_iteration_gb(
    const jobgraph::JobRequest& job) const {
  const NnParams& nn = nn_params(params_, job.profile.nn);
  const double grad =
      job.comm_graph.edge_count() > 0 ? nn.grad_volume_gb : 0.0;
  return grad + nn.h2d_per_sample_gb * job.profile.batch_size;
}

double DlWorkloadModel::average_link_bandwidth(
    const jobgraph::JobRequest& job, std::span<const int> gpus,
    const topo::TopologyGraph& topology) const {
  const IterationBreakdown step = iteration(job, gpus, topology);
  if (step.total_s <= 0.0) return 0.0;
  return bytes_per_iteration_gb(job) / step.total_s;
}

}  // namespace gts::perf
