// Metrics recorder: the simulated stand-in for the prototype's telemetry
// (nvprof, nvidia-smi nvlink counters, Perfmon2 DRAM counters).
//
// Records the per-job lifecycle (Fig. 8/9 timelines, QoS slowdowns,
// waiting times, SLO violations) and piecewise time series of aggregate
// P2P vs host-routed link bandwidth and of mean running-job utility.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/state.hpp"

namespace gts::cluster {

struct JobRecord {
  int id = 0;
  jobgraph::NeuralNet nn = jobgraph::NeuralNet::kAlexNet;
  jobgraph::BatchClass batch = jobgraph::BatchClass::kTiny;
  int num_gpus = 1;
  double min_utility = 0.0;
  double arrival = 0.0;
  double start = -1.0;  // placement time, -1 while queued
  double end = -1.0;    // completion / cancellation time, -1 while running
  /// Cancelled via the svc `cancel` verb (or Driver::cancel): the job was
  /// withdrawn while queued or running. Cancelled jobs carry no QoS
  /// slowdown and are excluded from makespan and the Fig. 10/11 curves.
  bool cancelled = false;
  /// Refused at submit: the job can never fit the cluster (a sharded
  /// driver: any cell). Never placed, and terminal from submission on.
  bool rejected = false;
  std::vector<int> gpus;
  double placement_utility = 0.0;
  bool p2p = false;
  /// Ideal (best-placement, solo) completion time from the profile.
  double best_solo_time = 0.0;
  /// Scheduling passes that offered this job to the scheduler and were
  /// declined (Algorithm 1 re-offers after every capacity change).
  int postponements = 0;
  /// Placements enacted below the job's declared minimum utility (the
  /// job accepted a degraded mapping rather than keep waiting).
  int degradation_events = 0;

  bool placed() const noexcept { return start >= 0.0; }
  bool finished() const noexcept { return end >= 0.0 && !cancelled; }
  /// "finished", "cancelled" or "rejected"; nullptr while the job is live.
  const char* terminal_state() const noexcept {
    if (rejected) return "rejected";
    if (end < 0.0) return nullptr;
    return cancelled ? "cancelled" : "finished";
  }
  /// Finished, cancelled or rejected: nothing further happens to the job.
  bool terminal() const noexcept { return terminal_state() != nullptr; }
  double waiting_time() const { return placed() ? start - arrival : -1.0; }
  double execution_time() const { return finished() ? end - start : -1.0; }

  /// Fractional slowdown vs the ideal run, placement effects only
  /// (Fig. 8e "JOB'S QOS").
  double qos_slowdown() const {
    if (!finished() || best_solo_time <= 0.0) return 0.0;
    return std::max(0.0, execution_time() / best_solo_time - 1.0);
  }
  /// Slowdown including scheduler queue time (Fig. 8f).
  double qos_wait_slowdown() const {
    if (!finished() || best_solo_time <= 0.0) return 0.0;
    return std::max(0.0, (end - arrival) / best_solo_time - 1.0);
  }
  /// SLO violated when the job was forced onto a placement below its
  /// declared minimum utility.
  bool slo_violated() const {
    return placed() && !cancelled && placement_utility + 1e-9 < min_utility;
  }
  /// Realized JCT (arrival to finish) over the ideal solo JCT; >= 1 for
  /// finished jobs, -1 while unknown. The live-telemetry SLO figure
  /// surfaced by the `status`/`list` verbs (DESIGN.md section 18.4).
  double jct_slowdown() const {
    if (!finished() || best_solo_time <= 0.0) return -1.0;
    return (end - arrival) / best_solo_time;
  }
};

struct SeriesPoint {
  double t = 0.0;
  double value = 0.0;
};

class Recorder {
 public:
  void on_submit(const jobgraph::JobRequest& request);
  void on_place(int job_id, double t, const std::vector<int>& gpus,
                double utility, bool p2p);
  /// Counts one declined scheduler offer for a still-queued job.
  void on_postpone(int job_id);
  void on_finish(int job_id, double t);
  /// Marks a queued or running job withdrawn at `t`.
  void on_cancel(int job_id, double t);
  /// Marks a just-submitted job as refused (it can never fit).
  void on_reject(int job_id);

  /// Appends one sample of the aggregate bandwidth (P2P and host-routed,
  /// GB/s) and mean running-job utility series. Call at every state change.
  void sample(const ClusterState& state, double t);

  /// Appends one fully formed record (the sharded driver merges per-cell
  /// recorders into a facade report this way; a restore imports the
  /// snapshot's terminal records). False, and nothing appended, when the
  /// id is already recorded.
  bool import_record(JobRecord record);

  const std::vector<JobRecord>& records() const noexcept { return records_; }
  JobRecord* find(int job_id);
  const JobRecord* find(int job_id) const;

  const std::vector<SeriesPoint>& p2p_bandwidth() const noexcept {
    return p2p_bw_;
  }
  const std::vector<SeriesPoint>& host_bandwidth() const noexcept {
    return host_bw_;
  }
  const std::vector<SeriesPoint>& mean_utility() const noexcept {
    return mean_utility_;
  }

  // --- summary -------------------------------------------------------------
  /// Time the last job finished ("cumulative execution time", Section 5.2.2).
  /// A running max kept by on_finish and import_record: O(1).
  double makespan() const noexcept { return makespan_; }
  int slo_violations() const;
  /// Declined offers summed over all jobs (live-telemetry SLO summary).
  long long total_postponements() const;
  /// Below-minimum-utility placements summed over all jobs.
  int total_degradations() const;
  /// Mean jct_slowdown() over finished jobs with a known solo time
  /// (0 when no job qualifies).
  double mean_jct_slowdown() const;
  /// QoS slowdowns sorted descending (the Fig. 8e/9e/10/11 curves).
  std::vector<double> sorted_qos_slowdowns() const;
  std::vector<double> sorted_qos_wait_slowdowns() const;
  double mean_waiting_time() const;

  /// Multi-line ASCII GPU-occupancy timeline (Fig. 8a-d style).
  std::string render_timeline(const topo::TopologyGraph& topology,
                              double t_end, int columns = 72) const;

 private:
  std::vector<JobRecord> records_;
  std::unordered_map<int, size_t> index_;  // job id -> records_ position
  double makespan_ = 0.0;  // max end over finished records
  std::vector<SeriesPoint> p2p_bw_;
  std::vector<SeriesPoint> host_bw_;
  std::vector<SeriesPoint> mean_utility_;
};

}  // namespace gts::cluster
