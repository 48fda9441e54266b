// ShardedDriver: datacenter-scale scheduling as a federation of cells
// (DESIGN.md section 19).
//
// The facade partitions the cluster into contiguous machine cells
// (shard/cells.hpp), gives each cell its own sched::Driver + scheduler
// over the cell's sub-topology, and routes every arriving job through the
// two-stage Filter/Score router (shard/router.hpp) before exactly one
// cell runs a full scheduling pass on it. Placement work is therefore
// O(cell), not O(cluster), per decision — the property bench/bench_scale
// measures from 500 to 5000 machines.
//
// The facade implements sched::DriverApi, so svc::ServiceCore, the
// snapshot/restore protocol, and every tool verb work unchanged on a
// sharded daemon. Published state is always in the global id space: GPU
// ids in views, records and snapshots are translated from cell-local ids
// at the boundary.
//
// Determinism: routing happens at arrival timestamps in submission order,
// and between routing points the cells advance on the caller's thread in
// cell order, so decision records (and the explain JSONL) come out in one
// fixed order. tests/shard_test.cpp pins a 4-cell trace to its committed
// digest.
//
// One shard is one cell spanning every machine, run through the same
// router, id translation and restore path as N cells;
// tests/shard_test.cpp holds it byte-identical to an unsharded Driver
// under all four policies.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "sched/driver.hpp"
#include "shard/cells.hpp"
#include "shard/router.hpp"

namespace gts::shard {

struct ShardedOptions {
  /// Number of cells; clamped to [1, machines].
  int shards = 1;
  /// Ignored: cells always advance on the caller's thread. It exists only
  /// because perfbench/cpp/scale_light.cpp assigns it; nothing in src/
  /// reads it.
  int shard_threads = 1;
  /// Placement policy instantiated per cell.
  sched::Policy policy = sched::Policy::kTopoAwareP;
  /// Per-cell driver options (noise, audit, utility weights).
  /// `allocation_listener` must be empty: cells would report cell-local
  /// GPU ids.
  sched::DriverOptions driver;
};

class ShardedDriver : public sched::DriverApi {
 public:
  ShardedDriver(const topo::TopologyGraph& topology,
                const perf::DlWorkloadModel& model,
                ShardedOptions options = {});

  /// Batch convenience mirroring Driver::run: submits the whole workload,
  /// runs every cell to completion, and returns the merged report
  /// (records in (arrival, id) order with global GPU ids; counters and
  /// latency histograms summed over cells).
  sched::DriverReport run(std::vector<jobgraph::JobRequest> jobs);

  /// The cell drivers, for tests and benchmarks.
  const sched::Driver& cell(int shard) const {
    return *cells_.at(static_cast<size_t>(shard)).driver;
  }
  /// The cell schedulers, for tests that read their work counters.
  const sched::Scheduler& cell_scheduler(int shard) const {
    return *cells_.at(static_cast<size_t>(shard)).scheduler;
  }

  // --- DriverApi -----------------------------------------------------------
  sched::SubmitResult submit(const jobgraph::JobRequest& request) override;
  bool cancel(int job_id) override;
  void drain() override;
  bool draining() const override;
  void advance_to(double t) override;
  double advance_all() override;
  void checkpoint_progress() override;
  bool idle() const override;
  double now() const override;
  int queue_depth() const override;
  int pending_count() const override;
  std::uint64_t capacity_version() const override;
  std::uint64_t allocation_version() const override;
  int running_job_count() const override;
  int free_gpu_count() const override;
  double fragmentation() const override;
  sched::DriverCounters counters() const override;
  sched::LifecycleSummary lifecycle() const override;
  int shard_count() const override {
    return static_cast<int>(cells_.size());
  }
  std::vector<sched::ShardInfo> shard_infos() const override;
  sched::RouterTelemetry router() const override;
  void visit_running(const std::function<bool(const sched::RunningJobView&)>&
                         fn) const override;
  void visit_waiting(const std::function<bool(const sched::WaitingView&)>& fn)
      const override;
  void visit_records(const std::function<bool(const cluster::JobRecord&)>& fn)
      const override;
  std::optional<cluster::JobRecord> job_record(int job_id) const override;
  std::vector<jobgraph::JobRequest> pending_arrivals() const override;
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
  util::Status validate() const override;

 private:
  struct Cell {
    /// Heap-held so the Driver's topology and scheduler references stay
    /// stable as cells_ grows.
    std::unique_ptr<CellTopology> topo;
    std::unique_ptr<sched::Scheduler> scheduler;
    std::unique_ptr<sched::Driver> driver;
    long long routed = 0;
  };
  struct PendingJob {
    jobgraph::JobRequest request;
    long long seq = 0;  // facade submission order, routing tie-break
  };

  bool known_id(int job_id) const;
  bool any_cell_fits(const jobgraph::JobRequest& request) const;
  /// Advances every cell whose clock is at or behind `t` (a cell already
  /// at `t` still fires arrivals routed to it at `t`), or runs every cell
  /// to completion when `t` is +infinity; one cell after another, in
  /// cell order.
  void advance_cells_to(double t);
  /// One routing candidate per cell, indexed by shard.
  std::vector<ShardCandidate> candidates() const;
  /// Routes one arrival batch: all pending jobs with arrival time `ta`,
  /// in submission order. Cells are first advanced to `ta` (so their
  /// capacity indexes reflect completions up to the arrival), then each job is routed and
  /// submitted to its cell. Its arrival event fires on the cell's next
  /// advance to `ta` or later, so advance_to(t) enacts arrivals at exactly
  /// `t`, as Driver::advance_to(t) does.
  void route_batch(double ta, std::vector<PendingJob> batch);
  /// Extracts, groups by arrival, and routes every pending arrival <= t.
  void route_pending_until(double t);
  int route_one(const jobgraph::JobRequest& request);
  /// Translates cell-local GPU ids to global ids.
  std::vector<int> to_global(const Cell& cell,
                             std::span<const int> gpus) const;
  cluster::JobRecord translated_record(const Cell& cell,
                                       const cluster::JobRecord& record) const;
  sched::DriverReport merged_report() const;

  const perf::DlWorkloadModel& model_;
  ShardedOptions options_;
  std::vector<Cell> cells_;
  double now_ = 0.0;
  bool draining_ = false;
  long long seq_counter_ = 0;
  /// Future arrivals held by the facade until their routing timestamp.
  std::map<int, PendingJob> pending_;
  /// Every id ever handed to a cell -> its shard.
  std::map<int, int> routed_shard_;
  /// Records the facade owns: never-fit rejects, cancels of not-yet
  /// routed jobs (cells never saw those ids), and the terminal records a
  /// restore imports (GPU ids already global).
  cluster::Recorder local_recorder_;
  int rejected_jobs_ = 0;
  int duplicate_jobs_ = 0;
  long long routed_ = 0;
  long long filtered_ = 0;
  long long exhausted_ = 0;
  obs::HistogramData route_latency_us_;
  /// Global GPU id -> owning shard / cell-local id.
  std::vector<int> gpu_shard_;
  std::vector<int> gpu_local_;
};

}  // namespace gts::shard
