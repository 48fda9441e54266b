// Shared experiment scenarios: the exact workloads and policy-comparison
// harnesses the paper's evaluation uses, reused by benches and tests.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "partition/drb.hpp"
#include "perf/model.hpp"
#include "sched/driver.hpp"
#include "sched/scheduler.hpp"
#include "sched/topo_aware.hpp"
#include "topo/topology.hpp"

namespace gts::exp {

/// The Table 1 job set: six DL jobs on the Power8 prototype machine.
///   Job   0        1         2        3        4        5
///   NN    AlexNet  GoogLeNet AlexNet  AlexNet  AlexNet  CaffeRef
///   batch 1        4         1        4        1        1
///   GPUs  1        1         1        2        2        2
///   minU  0.3      0.3       0.3      0.5      0.5      0.5
///   t     0.51s    15.03s    24.36s   25.33s   29.33s   29.89s
/// The paper trains 4000 iterations on the real machine; `iterations`
/// scales the scenario (the default reproduces the ~530 s horizon of
/// Fig. 8 with the calibrated model).
std::vector<jobgraph::JobRequest> table1_jobs(
    const perf::DlWorkloadModel& model, const topo::TopologyGraph& topology,
    long long iterations = 700);

/// Internal scheduler counters surfaced into BENCH documents: the DRB
/// and candidate-scoring counts of topology-aware runs. Both are
/// deterministic (decision-sequence functions), so they live outside the
/// "timing" subtree.
struct SchedulerStats {
  bool topo_aware = false;  // true for TOPO-AWARE / TOPO-AWARE-P runs
  partition::DrbStats drb;
  sched::ScoringStats scoring;
};

/// Runs one policy over a workload and returns the full report. `stats`,
/// when given, receives the scheduler's internal counters after the run.
sched::DriverReport run_policy(sched::Policy policy,
                               std::vector<jobgraph::JobRequest> jobs,
                               const topo::TopologyGraph& topology,
                               const perf::DlWorkloadModel& model,
                               sched::UtilityWeights weights = {},
                               SchedulerStats* stats = nullptr);

/// Comparison across the four policies of one workload.
struct PolicyComparison {
  struct Entry {
    sched::Policy policy;
    std::string name;
    double makespan = 0.0;
    int slo_violations = 0;
    double mean_waiting = 0.0;
    double mean_decision_us = 0.0;
    std::uint64_t events = 0;  // engine events fired during this run
    long long capacity_skips = 0;  // offers declined by the capacity gate
    std::vector<double> qos_slowdowns;       // sorted descending
    std::vector<double> qos_wait_slowdowns;  // sorted descending
    SchedulerStats sched_stats;
    /// Per-decision latency distribution of this run (microseconds).
    obs::HistogramData decision_latency_us;
  };
  std::vector<Entry> entries;

  const Entry& entry(sched::Policy policy) const;
};

PolicyComparison compare_policies(const std::vector<jobgraph::JobRequest>& jobs,
                                  const topo::TopologyGraph& topology,
                                  const perf::DlWorkloadModel& model,
                                  sched::UtilityWeights weights = {});

/// The two large-scale simulation scenarios (Section 5.5): clusters of
/// Minsky machines with the Section 5.3 generator.
struct LargeScaleOptions {
  int machines = 5;
  int jobs = 100;
  std::uint64_t seed = 42;
  /// Iterations per job. 250 puts the cluster at the paper's moderate
  /// load: under full saturation every work-conserving policy is forced
  /// into identical placements and the comparison degenerates.
  long long iterations = 250;
};
PolicyComparison run_large_scale(const LargeScaleOptions& options);

}  // namespace gts::exp
