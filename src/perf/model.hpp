// DL workload performance model: the simulated substitute for running
// Caffe on the physical machines (see params.hpp for the calibration).
//
// The model answers, for a job placed on a set of GPUs:
//   * per-iteration compute and communication time,
//   * total completion time for N iterations,
//   * how those numbers change under link sharing (flows from other jobs
//     on the same physical links) and machine-level interference
//     (the Fig. 6 slowdown matrix),
//   * the link bandwidth counters a tool like nvidia-smi would report
//     (Fig. 5's time series).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "jobgraph/jobgraph.hpp"
#include "perf/params.hpp"
#include "topo/topology.hpp"
#include "util/instance_tag.hpp"

namespace gts::perf {

/// Number of foreign traffic flows per link id; used to split link
/// bandwidth fairly between jobs. Empty means "no contention".
using LinkFlows = std::vector<int>;

/// Per-link flow counts to subtract from a LinkFlows table on read:
/// sorted-by-link (link, signed count) pairs. Typically one running job's
/// own contribution (RunningJob::flow_link_counts); a negative count adds,
/// so Eq. 4 passes "own minus candidate" to see a hypothetical placement's
/// flows too. Passing the global flow table plus this delta is
/// bitwise-equivalent to materializing the adjusted copy — the arithmetic
/// happens in integers before any division — without the O(links) copy
/// per query.
using FlowDelta = std::span<const std::pair<topo::LinkId, int>>;

/// Sorts `links` (a flattened per-edge path list, with multiplicity) and
/// writes its (link, multiplicity) runs to `counts` — the FlowDelta shape.
void condense_flows(std::vector<topo::LinkId>& links,
                    std::vector<std::pair<topo::LinkId, int>>& counts);

/// A job sharing machine resources with the one under evaluation.
struct CoRunner {
  jobgraph::BatchClass batch = jobgraph::BatchClass::kTiny;
  /// True when the co-runner occupies a GPU on one of the same CPU sockets
  /// (closer contention: memory bus and host links).
  bool same_socket = false;
};

/// What the model reports for one placement under given conditions.
struct IterationBreakdown {
  double compute_s = 0.0;  // GPU compute per iteration
  double comm_s = 0.0;     // blocking gradient exchange per iteration
  double interference_factor = 1.0;  // multiplicative co-runner slowdown
  double total_s = 0.0;    // (compute + comm) * interference_factor
  PathClass worst_path = PathClass::kPeerToPeer;  // slowest comm pair class
  double effective_bw_gbps = 0.0;  // bandwidth of the bottleneck pair
  bool all_pairs_p2p = true;       // every communicating pair has P2P
};

class DlWorkloadModel {
 public:
  explicit DlWorkloadModel(CalibrationParams params)
      : params_(std::move(params)) {}

  const CalibrationParams& params() const noexcept { return params_; }

  /// GPU compute time per iteration (seconds).
  double compute_time(jobgraph::NeuralNet nn, int batch_size) const;

  /// Classifies the routing path between two GPUs.
  PathClass classify_path(const topo::TopologyGraph& topology, int gpu_a,
                          int gpu_b) const;

  /// Effective bandwidth of the pair path: bottleneck x efficiency class,
  /// divided further when links on the path carry `extra_flows` foreign
  /// flows (fair sharing: a link with f foreign flows gives 1/(f+1)).
  /// `exclude_flows` is subtracted from `extra_flows` on read (see
  /// FlowDelta) so callers can pass a total-flows table together with the
  /// evaluated job's own contribution instead of copying the table.
  double effective_bandwidth(const topo::TopologyGraph& topology, int gpu_a,
                             int gpu_b, const LinkFlows* extra_flows,
                             FlowDelta exclude_flows = {}) const;

  /// Full per-iteration breakdown for `job` on `gpus` (global GPU ids, one
  /// per task). `co_runner_batches` lists the batch classes of other jobs
  /// sharing any machine with this placement. `extra_flows` carries
  /// foreign per-link flow counts, or nullptr for a solo machine;
  /// `exclude_flows` is subtracted from it on read (FlowDelta).
  IterationBreakdown iteration(const jobgraph::JobRequest& job,
                               std::span<const int> gpus,
                               const topo::TopologyGraph& topology,
                               const LinkFlows* extra_flows = nullptr,
                               std::span<const CoRunner> co_runners = {},
                               FlowDelta exclude_flows = {}) const;

  /// Completion time for the job's full iteration count under fixed
  /// conditions (the simulator integrates piecewise when conditions vary).
  double completion_time(const jobgraph::JobRequest& job,
                         std::span<const int> gpus,
                         const topo::TopologyGraph& topology,
                         const LinkFlows* extra_flows = nullptr,
                         std::span<const CoRunner> co_runners = {}) const;

  /// Multiplicative slowdown factor for a job of class `mine` sharing
  /// machines with `others` (Fig. 6 composition; same-socket co-runners
  /// are boosted by socket_interference_boost).
  double interference_factor(jobgraph::BatchClass mine,
                             std::span<const CoRunner> others) const;

  /// Average NVLink/PCIe byte-counter bandwidth (GB/s) the job drives over
  /// its busiest link: (gradient volume + input H2D volume) / iteration
  /// time. This is what Fig. 5 plots.
  double average_link_bandwidth(const jobgraph::JobRequest& job,
                                std::span<const int> gpus,
                                const topo::TopologyGraph& topology) const;

  /// Total bytes (GB) per iteration the job moves over links (gradients +
  /// H2D input); used by metric recorders.
  double bytes_per_iteration_gb(const jobgraph::JobRequest& job) const;

  /// Process-unique tag of this model's parameters (util::InstanceTag):
  /// caches of model-derived results key on it, not on the address.
  std::uint64_t instance_tag() const noexcept { return tag_.value(); }

 private:
  CalibrationParams params_;
  util::InstanceTag tag_;
};

}  // namespace gts::perf
