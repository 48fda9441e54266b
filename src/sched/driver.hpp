// Simulation driver: Algorithm 1's scheduler loop in simulated time.
//
// The driver owns the waiting queue (sorted by arrival time — "the oldest
// jobs have priority to be placed"), wakes on its two kinds of events —
// job arrivals and job completions — runs a scheduling pass over the
// queue after each, and tracks the wall-clock cost of placement decisions
// (the Section 5.5.3 overhead analysis). Pending arrivals wait in a map
// ordered by (arrival time, submission order); the next completion is the
// cluster state's finish-heap top. At equal timestamps arrivals fire
// first, in submission order, then one completion event retires every
// job due.
//
// Two operating modes share the same queue discipline:
//
//   * batch (`run`): submit a whole workload, fire events until none
//     remain — the paper's Section 5 experiments;
//   * online (`submit` / `cancel` / `drain` / `advance_to` /
//     `advance_all`): jobs arrive one at a time while the caller controls
//     how far simulated time advances — the scheduler service
//     (src/svc/) drives this API, including its snapshot/restore seams
//     (`begin_restore` / `restore_running` / `restore_waiting` /
//     `restore_record` / `finish_restore`).
#pragma once

#include <map>
#include <vector>

#include "cluster/recorder.hpp"
#include "cluster/state.hpp"
#include "obs/metrics.hpp"
#include "sched/driver_api.hpp"
#include "sched/scheduler.hpp"
#include "util/expected.hpp"

namespace gts::sched {

struct DriverOptions {
  /// Ignored: the driver records job records only, no time series. It
  /// exists only because perfbench/cpp/fig11.cpp and
  /// perfbench/cpp/scale_light.cpp assign it; nothing in src/ reads it.
  bool record_series = false;
  /// Lognormal execution-noise sigma (0 = deterministic). The schedulers
  /// still predict with the noise-free model, as in the paper's cloud.
  double noise_sigma = 0.0;
  std::uint64_t noise_seed = 1234;
  UtilityWeights utility_weights{};
  /// Self-audit mode (check subsystem): validate the topology up front,
  /// replay every proposed placement through check::audit_placement before
  /// enacting it, and run check::validate(ClusterState) after every
  /// simulation event. Any inconsistency fires GTS_CHECK. O(jobs) per
  /// event — meant for tests and debugging runs, off by default.
  bool self_audit = false;
  /// Installed on the ClusterState before any traffic (benchmarks count
  /// allocations through it). ShardedDriver refuses it: cells would
  /// report cell-local GPU ids.
  cluster::ClusterState::AllocationListener allocation_listener;
};

struct DriverReport {
  cluster::Recorder recorder;
  /// Wall-clock seconds spent inside Scheduler::place across the run and
  /// the number of placement attempts (Section 5.5.3).
  double decision_seconds = 0.0;
  long long decision_count = 0;
  /// Queue offers declined by the capacity gate (ClusterState::may_fit)
  /// without calling Scheduler::place. Deterministic: decision_count +
  /// capacity_skips is the number of offers an ungated driver makes.
  long long capacity_skips = 0;
  /// Per-decision latency distribution (microseconds), recorded for every
  /// run — this is the report-local histogram bench_overhead aggregates;
  /// the obs registry histogram "sched.decision_latency_us" is only fed
  /// when metrics are enabled.
  obs::HistogramData decision_latency_us;
  /// decision_latency_us split by outcome. A mean over mixed outcomes
  /// moves whenever the mix does — the capacity gate removes the cheapest
  /// declines (DESIGN.md section 21) — so compare placements with
  /// placements.
  obs::HistogramData placed_latency_us;
  obs::HistogramData declined_latency_us;
  double mean_decision_seconds() const {
    return decision_count == 0 ? 0.0
                               : decision_seconds /
                                     static_cast<double>(decision_count);
  }
  /// Wall-clock seconds spent on the advance path — processing completion
  /// events (due-completion collection + removal rate updates) — and the
  /// number of completion events. The other half of the Section 5.5.3
  /// overhead split: together with decision_* it attributes scale
  /// regressions to the decision path or the event path.
  double advance_seconds = 0.0;
  long long advance_count = 0;
  obs::HistogramData advance_latency_us;
  double mean_advance_seconds() const {
    return advance_count == 0 ? 0.0
                              : advance_seconds /
                                    static_cast<double>(advance_count);
  }
  /// Simulated time when the last job finished.
  double end_time = 0.0;
  /// Events fired across the run — arrivals plus completion events, each
  /// of which retires every job due at its time (the runner's events/sec
  /// throughput denominator).
  std::uint64_t events = 0;
  /// Jobs dropped because they can never fit the cluster (capacity), kept
  /// at zero by all paper scenarios.
  int rejected_jobs = 0;
};

/// The view of a running job whose GPUs the caller publishes as `gpus`
/// (the job's own ids, or their global translation in a sharded cell).
RunningJobView running_view(const cluster::RunningJob& job,
                            std::span<const int> gpus);

class Driver : public DriverApi {
 public:
  Driver(const topo::TopologyGraph& topology,
         const perf::DlWorkloadModel& model, Scheduler& scheduler,
         DriverOptions options = {});

  struct QueueEntry {
    jobgraph::JobRequest request;
    /// Capacity version at the last failed attempt: a declined job is only
    /// re-offered after a completion frees capacity (placements never make
    /// a previously-declined placement viable, they only add contention).
    std::uint64_t attempted_version = ~0ULL;
  };

  /// Runs the whole workload to completion and returns a copy of the
  /// report; report(), recorder() and lifecycle() still read the run
  /// afterwards. `jobs` need not be sorted; arrival order is established
  /// internally.
  DriverReport run(std::vector<jobgraph::JobRequest> jobs);

  // --- online mode ---------------------------------------------------------
  /// Admits one job. Its arrival event fires at
  /// max(request.arrival_time, now); an arrival at `now` is only enacted
  /// by the next advance_to/advance_all call.
  SubmitResult submit(const jobgraph::JobRequest& request) override;

  /// Withdraws a job: pending arrivals never fire, queued jobs
  /// leave the queue, running jobs release their GPUs (freed capacity is
  /// offered to the queue immediately). False when the id is unknown or
  /// the job already finished.
  bool cancel(int job_id) override;

  /// Refuses all subsequent submits; queued and running work proceeds.
  void drain() noexcept override { draining_ = true; }
  bool draining() const noexcept override { return draining_; }

  /// Fires every event with timestamp <= t and leaves the clock at t.
  void advance_to(double t) override;
  /// Runs until no events remain (all admitted work finished or stuck
  /// waiting for capacity that will never free). Returns the clock.
  double advance_all() override;
  /// Banks every running job's progress at the current clock, which
  /// rebases the stored finish times on the banked values. Taking a
  /// snapshot calls this first so the snapshotting process and a process
  /// restored from the snapshot continue with bitwise-identical progress
  /// arithmetic (both then extrapolate from `now`, not from the last
  /// event).
  void checkpoint_progress() override;
  /// True when nothing is running, queued, or pending arrival.
  bool idle() const override {
    return state_.running_job_count() == 0 && queue_.empty() &&
           pending_arrivals_.empty();
  }

  double now() const noexcept override { return now_; }
  int queue_depth() const noexcept override {
    return static_cast<int>(queue_.size());
  }
  const std::vector<QueueEntry>& waiting() const noexcept { return queue_; }
  /// Jobs submitted with a future arrival time, not yet in the queue, in
  /// id order.
  std::vector<jobgraph::JobRequest> pending_arrivals() const override;
  int pending_count() const noexcept override {
    return static_cast<int>(pending_arrivals_.size());
  }
  std::uint64_t capacity_version() const noexcept override {
    return capacity_version_;
  }
  const cluster::ClusterState& state() const noexcept { return state_; }
  const DriverReport& report() const noexcept { return report_; }
  const cluster::Recorder& recorder() const noexcept {
    return report_.recorder;
  }

  // --- DriverApi aggregate views -------------------------------------------
  std::uint64_t allocation_version() const override {
    return state_.allocation_version();
  }
  int running_job_count() const override {
    return state_.running_job_count();
  }
  int free_gpu_count() const override { return state_.free_gpu_count(); }
  double fragmentation() const override { return state_.fragmentation(); }
  DriverCounters counters() const override;
  LifecycleSummary lifecycle() const override;
  int shard_count() const override { return 1; }
  std::vector<ShardInfo> shard_infos() const override;
  RouterTelemetry router() const override { return {}; }
  void visit_running(
      const std::function<bool(const RunningJobView&)>& fn) const override;
  void visit_waiting(
      const std::function<bool(const WaitingView&)>& fn) const override;
  void visit_records(
      const std::function<bool(const cluster::JobRecord&)>& fn) const override;
  std::optional<cluster::JobRecord> job_record(int job_id) const override;
  util::Status validate() const override;

  // --- snapshot restore ----------------------------------------------------
  /// Restore protocol (svc snapshots): on a freshly constructed driver,
  ///   begin_restore(now, capacity_version)
  ///   restore_running(...) per running job   (audited, placement replay)
  ///   restore_waiting(...)  per queued job   (queue order preserved)
  ///   submit(...)           per pending future arrival
  ///   restore_record(...)   per terminal job (finished/cancelled/rejected)
  ///   finish_restore()                       (validate)
  util::Status begin_restore(double now,
                             std::uint64_t capacity_version) override;
  util::Status restore_running(const jobgraph::JobRequest& request,
                               const std::vector<int>& gpus,
                               double start_time, double progress_iterations,
                               double placement_utility, double noise_factor,
                               int postponements = 0) override;
  void restore_waiting(const jobgraph::JobRequest& request,
                       std::uint64_t attempted_version,
                       int postponements = 0, int shard_hint = -1) override;
  util::Status restore_record(const cluster::JobRecord& record) override;
  util::Status finish_restore() override;

 private:
  /// Fires the earlier of the next pending arrival and the next
  /// completion if it is due at or before `until`; false when neither is.
  bool step(double until);
  void on_arrival(jobgraph::JobRequest request);
  void on_completion_event();
  void scheduling_pass();
  void sync_report();

  const topo::TopologyGraph& topology_;
  const perf::DlWorkloadModel& model_;
  Scheduler& scheduler_;
  DriverOptions options_;
  UtilityModel shared_utility_;

  double now_ = 0.0;  // simulated seconds
  cluster::ClusterState state_;
  std::vector<QueueEntry> queue_;  // waiting, arrival-ordered
  /// Submitted jobs whose arrival has not fired yet, keyed by (arrival
  /// time, submission sequence) — the order they fire in. Online cancels
  /// and snapshots scan it by id.
  std::map<std::pair<double, std::uint64_t>, jobgraph::JobRequest>
      pending_arrivals_;
  std::uint64_t submit_sequence_ = 0;
  std::uint64_t capacity_version_ = 0;
  bool draining_ = false;
  DriverReport report_;
};

}  // namespace gts::sched
