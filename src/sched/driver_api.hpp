// DriverApi: the scheduling-driver surface the service layer programs
// against (DESIGN.md section 19).
//
// Two implementations exist:
//
//   * sched::Driver       — one scheduler over one cluster (the Algorithm 1
//                           loop; the reference semantics);
//   * shard::ShardedDriver — a facade over N cells, each running its own
//                           Driver over a sub-topology, fronted by the
//                           Filter/Score router.
//
// svc::ServiceCore holds a DriverApi and never cares which one it got, so
// every verb — status, list, metrics, snapshot/restore, Prometheus
// exposition — works identically for sharded and unsharded daemons. The
// interface exposes *views* (visitors over running / waiting / terminal
// jobs) instead of handing out internal containers, because the sharded
// implementation must translate per-cell GPU ids into the global id space
// on the way out and must not copy whole tables per request.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "cluster/recorder.hpp"
#include "obs/metrics.hpp"
#include "util/expected.hpp"

namespace gts::sched {

/// Outcome of an online submit.
enum class SubmitResult {
  kAccepted,   // arrival event scheduled (or queued immediately)
  kNeverFits,  // exceeds cluster capacity under its constraints; rejected
  kDuplicate,  // a job with this id was already submitted
  kDraining,   // driver is draining; new work refused
};
std::string_view to_string(SubmitResult result) noexcept;

/// Static capacity check: can `request` ever fit `topology`, regardless of
/// what currently runs? Section 4.3 host-bandwidth ceiling plus the
/// anti-collocation / single-node shape constraints. The Driver uses it to
/// reject hopeless submits; the shard router uses it per cell to find
/// shards a job could ever run in.
bool job_can_ever_fit(const jobgraph::JobRequest& request,
                      const topo::TopologyGraph& topology,
                      const perf::DlWorkloadModel& model);

/// One running job as the service layer sees it. `gpus` are GLOBAL GPU ids
/// (the sharded driver translates cell-local ids before the callback) and
/// the span is only valid for the duration of the visit callback.
struct RunningJobView {
  const jobgraph::JobRequest* request = nullptr;
  std::span<const int> gpus;
  double start_time = 0.0;
  /// Progress as last banked, plus the rate/last_update pair needed to
  /// extrapolate live progress at the caller's clock.
  double progress_iterations = 0.0;
  double last_update = 0.0;
  double rate = 0.0;
  double placement_utility = 0.0;
  double noise_factor = 1.0;
  bool p2p = false;
};

/// One waiting-queue entry. `attempted_version` is expressed in the
/// implementation's public capacity_version() space (the sharded driver
/// normalizes per-cell versions on the way out, see its snapshot notes).
struct WaitingView {
  const jobgraph::JobRequest* request = nullptr;
  std::uint64_t attempted_version = ~0ULL;
  /// Owning shard (always 0 unsharded). Snapshots of sharded daemons
  /// persist it so a restore re-queues the job in the same cell — routing
  /// is a function of arrival-time state, which a restore cannot replay.
  int shard = 0;
};

/// Scheduler-loop counters (the `metrics` verb's cost block).
struct DriverCounters {
  long long decision_count = 0;
  double decision_seconds = 0.0;
  std::uint64_t events = 0;
  int rejected_jobs = 0;
};

/// Lifecycle / SLO aggregates over every job the implementation has seen.
struct LifecycleSummary {
  /// Finished, cancelled and rejected jobs.
  int terminal = 0;
  long long postponements = 0;
  int degradations = 0;
  int slo_violations = 0;
  double mean_jct_slowdown = 0.0;
  double mean_waiting_time = 0.0;
};

/// Folds records into a LifecycleSummary in job-id order, so the means
/// depend on the set of records and not on the order a driver holds them
/// in (a restored driver holds the same records in another order).
LifecycleSummary summarize_lifecycle(
    std::vector<const cluster::JobRecord*> records);
/// The same over every record `recorder` holds.
LifecycleSummary summarize_lifecycle(const cluster::Recorder& recorder);

/// Checks a terminal record a snapshot carries before a driver imports
/// it: terminal state, finite times, GPU ids in [0, gpu_count) exactly
/// when the job was placed, non-negative counters.
util::Status check_terminal_record(const cluster::JobRecord& record,
                                   int gpu_count);

/// Per-cell occupancy row (the `shards` verb and the per-shard Prometheus
/// gauges). An unsharded Driver reports itself as one cell, shard 0.
struct ShardInfo {
  int shard = 0;
  int machines = 0;
  int gpus = 0;
  int free_gpus = 0;
  int running = 0;
  int queued = 0;
  double fragmentation = 0.0;
  long long decisions = 0;
  long long placements = 0;
  /// Jobs the router sent to this cell (equals placements + queue for an
  /// unsharded driver, where no routing happens).
  long long routed = 0;
};

/// Two-stage router telemetry; all-zero for an unsharded driver.
struct RouterTelemetry {
  long long routed = 0;     // routing decisions made
  long long filtered = 0;   // shard candidacies rejected by the Filter stage
  long long exhausted = 0;  // routes where every shard was filtered (fallback)
  obs::HistogramData route_latency_us;
};

class DriverApi {
 public:
  virtual ~DriverApi() = default;

  // --- control -------------------------------------------------------------
  virtual SubmitResult submit(const jobgraph::JobRequest& request) = 0;
  virtual bool cancel(int job_id) = 0;
  virtual void drain() = 0;
  virtual bool draining() const = 0;
  /// Fires every event with timestamp <= t and leaves the clock at t.
  virtual void advance_to(double t) = 0;
  /// Runs until no events remain; returns the clock.
  virtual double advance_all() = 0;
  /// Banks running-job progress at the current clock and re-arms
  /// completions, so snapshot-then-continue and restore-then-continue use
  /// bitwise-identical arithmetic.
  virtual void checkpoint_progress() = 0;
  virtual bool idle() const = 0;

  // --- clocks and aggregate state ------------------------------------------
  virtual double now() const = 0;
  virtual int queue_depth() const = 0;
  /// Jobs submitted with a future arrival time, not yet queued (cheaper
  /// than pending_arrivals().size() — no copy).
  virtual int pending_count() const = 0;
  virtual std::uint64_t capacity_version() const = 0;
  /// Allocation-mutation counter (sum over cells when sharded).
  virtual std::uint64_t allocation_version() const = 0;
  virtual int running_job_count() const = 0;
  virtual int free_gpu_count() const = 0;
  /// Eq. 5 mean free-socket fraction (socket-weighted mean over cells).
  virtual double fragmentation() const = 0;
  virtual DriverCounters counters() const = 0;
  virtual LifecycleSummary lifecycle() const = 0;

  // --- sharding introspection ----------------------------------------------
  virtual int shard_count() const = 0;
  virtual std::vector<ShardInfo> shard_infos() const = 0;
  virtual RouterTelemetry router() const = 0;

  // --- views ---------------------------------------------------------------
  /// Visits running jobs in ascending job-id order; return false from the
  /// callback to stop early. GPU ids in the view are global.
  virtual void visit_running(
      const std::function<bool(const RunningJobView&)>& fn) const = 0;
  /// Visits waiting-queue entries in queue order (arrival order; merged
  /// (arrival, id) order across cells when sharded).
  virtual void visit_waiting(
      const std::function<bool(const WaitingView&)>& fn) const = 0;
  /// Visits every job record the implementation has seen, in (arrival, id)
  /// order when sharded and submission order otherwise. GPU ids global.
  virtual void visit_records(
      const std::function<bool(const cluster::JobRecord&)>& fn) const = 0;
  /// Record of one job (GPU ids global), or nullopt if never seen.
  virtual std::optional<cluster::JobRecord> job_record(int job_id) const = 0;
  virtual std::vector<jobgraph::JobRequest> pending_arrivals() const = 0;

  // --- snapshot restore ----------------------------------------------------
  /// Same protocol as Driver: on a fresh instance, begin_restore, then
  /// restore_running per running job, restore_waiting per queued job (in
  /// visit_waiting order), submit per pending arrival, restore_record per
  /// terminal job, finish_restore.
  virtual util::Status begin_restore(double now,
                                     std::uint64_t capacity_version) = 0;
  virtual util::Status restore_running(const jobgraph::JobRequest& request,
                                       const std::vector<int>& gpus,
                                       double start_time,
                                       double progress_iterations,
                                       double placement_utility,
                                       double noise_factor,
                                       int postponements = 0) = 0;
  /// `shard_hint` is the WaitingView::shard the snapshot captured; -1
  /// (or an out-of-range value from an older layout) lets a sharded
  /// implementation re-route. Unsharded drivers ignore it.
  virtual void restore_waiting(const jobgraph::JobRequest& request,
                               std::uint64_t attempted_version,
                               int postponements = 0,
                               int shard_hint = -1) = 0;
  /// Imports one terminal record (GPU ids global) after check_terminal_
  /// record; refuses an id the driver already knows. Job history has one
  /// owner — the driver's records — so a restored driver keeps the
  /// lifecycle metrics and the duplicate-id refusal of jobs that ended
  /// before the snapshot.
  virtual util::Status restore_record(const cluster::JobRecord& record) = 0;
  virtual util::Status finish_restore() = 0;

  /// check::validate over the cluster state (every cell when sharded).
  virtual util::Status validate() const = 0;
};

}  // namespace gts::sched
