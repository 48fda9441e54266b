// Job communication graph and job profile (Sections 4.1.1 and 4.2).
//
// Vertices are the job's tasks (one per requested GPU); edges carry the
// expected communication volume between task pairs, normalized during
// mapping. Caffe's data-parallel model makes every GPU exchange gradients
// with every other, so DL jobs use all-to-all graphs with one weight per
// batch class, but the structure is general (model-parallel jobs can build
// arbitrary graphs).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "jobgraph/workload.hpp"

namespace gts::jobgraph {

struct CommEdge {
  int a = 0;
  int b = 0;
  double weight = 0.0;  // >0; average GPU-to-GPU bandwidth usage class
};

/// Undirected weighted communication graph over tasks 0..task_count-1.
class JobGraph {
 public:
  JobGraph() = default;
  explicit JobGraph(int task_count) : task_count_(task_count) {}

  /// Data-parallel pattern: every pair of tasks communicates with equal
  /// weight (Section 5.1). `weight` <= 0 yields an edgeless graph (a job
  /// whose GPUs do not talk to each other).
  static JobGraph all_to_all(int task_count, double weight);

  /// Ring pattern (ring all-reduce style model-parallel stages).
  static JobGraph ring(int task_count, double weight);

  int task_count() const noexcept { return task_count_; }
  const std::vector<CommEdge>& edges() const noexcept { return edges_; }
  int edge_count() const noexcept { return static_cast<int>(edges_.size()); }

  void add_edge(int a, int b, double weight);

  /// Weight between a pair (0 when not connected). O(edges).
  double edge_weight(int a, int b) const noexcept;

  /// Sum of all edge weights.
  double total_weight() const noexcept;

  /// Sum of weights from `task` to any task in `group`.
  double weight_to_group(int task, const std::vector<int>& group) const;

 private:
  int task_count_ = 0;
  std::vector<CommEdge> edges_;
};

/// Job profile (Section 4.2): what the scheduler knows about a workload
/// from historical profiling — its communication class and the expected
/// interference it suffers/causes when collocated with other classes.
struct JobProfile {
  NeuralNet nn = NeuralNet::kAlexNet;
  BatchClass batch = BatchClass::kTiny;
  int batch_size = 1;  // per-GPU batch size

  /// Job-graph edge weight (4=tiny .. 1=big per Section 5.1).
  double comm_weight = 4.0;

  /// Solo completion-time anchor from profiling (95th percentile in the
  /// prototype); filled by perf::fill_profile(). Seconds for the job's
  /// full iteration count on its best (pack) placement.
  double solo_time_pack = 0.0;

  /// Expected fractional slowdown (0 = none) when collocated with a job of
  /// each batch class on the same machine — the Fig. 6 matrix row.
  std::array<double, kBatchClassCount> collocation_slowdown{};

  /// Aggregate host-bandwidth demand (GB/s): link bytes per iteration over
  /// the solo iteration time. Consumed by the Section 4.3 capacity
  /// constraint t_bw <= p_bw during host filtering.
  double host_bw_demand_gbps = 0.0;

  /// Placement constraints (Section 4.4).
  bool single_node = true;       // job cannot span machines
  bool anti_collocate = false;   // tasks must land on distinct machines
};

/// A job submission: what arrives in the scheduler queue.
struct JobRequest {
  int id = 0;
  double arrival_time = 0.0;  // seconds
  int num_gpus = 1;
  long long iterations = 4000;  // training iterations (paper default)
  double min_utility = 0.0;     // SLO translated to a utility threshold
  JobProfile profile;
  JobGraph comm_graph;  // task_count == num_gpus

  /// Builds the canonical data-parallel request for a DL job.
  static JobRequest make_dl(int id, double arrival_time, NeuralNet nn,
                            int batch_size, int num_gpus, double min_utility,
                            long long iterations = 4000);
};

}  // namespace gts::jobgraph
