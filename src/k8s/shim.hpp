// Kubernetes scheduler-framework shim (the paper's Section 7 future work:
// "we plan to ... test the implementation of our algorithm in popular
// resource management systems such as Kubernetes and Mesos").
//
// Models the K8s scheduling-framework contract a device-aware plugin
// implements: pods request "nvidia.com/gpu" extended resources and carry
// the job profile as annotations; the plugin exposes the Filter phase
// (node feasibility), the Score phase (0..100 per node), and Bind (GPU
// device selection). Filter is Algorithm 1's host rule (sched::host_fits)
// and Score the placement utility of a DRB mapping inside the node; Bind
// is TOPO-AWARE-P's decision over the whole cluster, mapped to the device
// allocation and the CUDA_VISIBLE_DEVICES binding the paper's prototype
// enforces.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/state.hpp"
#include "sched/topo_aware.hpp"
#include "util/expected.hpp"

namespace gts::k8s {

/// The subset of a pod spec a GPU-topology plugin consumes.
struct GpuPodSpec {
  std::string name;
  /// requests["nvidia.com/gpu"] — the extended-resource GPU count.
  int gpu_request = 1;
  /// Annotations, using the "gts.io/" prefix:
  ///   gts.io/nn            AlexNet | CaffeRef | GoogLeNet
  ///   gts.io/batch-size    per-GPU batch size (int)
  ///   gts.io/min-utility   SLO threshold in [0,1]
  ///   gts.io/iterations    training iterations (int)
  ///   gts.io/multi-node    "true" to drop the single-node constraint
  ///   gts.io/anti-affinity "true" for one task per node
  std::map<std::string, std::string> annotations;
};

/// Result of the Bind phase: the device plugin's allocation, one entry
/// per task in every vector. A multi-node pod spans several nodes.
struct Binding {
  std::vector<int> nodes;              // machine index of each device
  std::vector<int> device_ids;         // machine-local GPU indices
  std::vector<int> global_gpu_ids;     // library-level GPU indices
  std::vector<std::string> environment;  // CUDA_* launch recipe
  double score = 0.0;                  // the placement's utility x 100
};

class KubeTopologyScheduler {
 public:
  KubeTopologyScheduler(const topo::TopologyGraph& topology,
                        const perf::DlWorkloadModel& model,
                        sched::UtilityWeights weights = {})
      : topology_(topology), model_(model), weights_(weights) {}

  /// Translates a pod spec into the library's job request (profiles
  /// filled). Fails on malformed annotations.
  util::Expected<jobgraph::JobRequest> pod_to_job(const GpuPodSpec& pod,
                                                  int job_id) const;

  /// Filter phase: can `node` take part in the pod right now? Section
  /// 4.3's host rule (sched::host_fits): all of a single-node pod, or one
  /// device and an even bandwidth share of a multi-node or anti-affinity
  /// pod.
  bool filter(const jobgraph::JobRequest& job,
              const cluster::ClusterState& state, int node) const;

  /// Score phase: 0..100 — scaled placement utility of the DRB mapping of
  /// the whole pod inside `node`; 0 when Filter fails or the node cannot
  /// hold every device.
  int score(const jobgraph::JobRequest& job,
            const cluster::ClusterState& state, int node) const;

  /// Bind phase: TOPO-AWARE-P's placement of the pod on the cluster,
  /// returned as the device allocation. nullopt (the pod stays Pending)
  /// when the pod does not fit or its achievable utility is below its
  /// min-utility annotation.
  std::optional<Binding> bind(const jobgraph::JobRequest& job,
                              const cluster::ClusterState& state) const;

 private:
  const topo::TopologyGraph& topology_;
  const perf::DlWorkloadModel& model_;
  sched::UtilityWeights weights_;
};

}  // namespace gts::k8s
