// Cluster state: GPU allocations, per-link traffic flows, and the
// progress of running jobs under time-varying conditions.
//
// Jobs execute at a rate of 1 / iteration_time, where iteration_time comes
// from the performance model and depends on everything else running (link
// sharing + machine interference). Whenever the set of running jobs
// changes, the state banks the progress of every job whose rate changes at
// its old rate, then enters the new rate regime; completion estimates are
// therefore exact piecewise integration, not approximations.
//
// The event path (place/remove) costs O(touched state), not O(cluster):
// only jobs sharing a machine or a link with the changed placement are
// re-rated (their inputs are the only ones that changed — DESIGN.md
// section 20 gives the FP-exactness argument), "what a job sees as foreign
// flows" is the global flow table minus the job's own contribution
// subtracted on read (perf::FlowDelta, no per-query copy), and the next
// completion comes from an indexed finish-time min-heap maintained at rate
// changes instead of a scan over every running job.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "jobgraph/jobgraph.hpp"
#include "perf/model.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace gts::cluster {

struct RunningJob {
  jobgraph::JobRequest request;
  std::vector<int> gpus;          // one global GPU id per task
  double start_time = 0.0;
  double progress_iterations = 0.0;
  double last_update = 0.0;       // time progress was last banked
  double rate = 0.0;              // iterations per second, current regime
  double placement_utility = 0.0; // utility the scheduler attributed
  bool p2p = false;               // all communicating pairs have P2P paths
  /// Execution-speed multiplier drawn at placement when noise is enabled
  /// (cloud variability, Section 4.2); 1.0 = deterministic.
  double noise_factor = 1.0;

  // Placement-time caches for the Eq. 4 hot path. All are constants for
  // the job's lifetime (the solo anchor ignores cluster load and the flow
  // links depend only on the fixed placement + topology), so no
  // invalidation beyond the job's removal is needed.
  /// Solo best-case iteration time (profile anchor or pack prediction).
  double solo_iteration_s = 0.0;
  /// Every link of every comm edge's routing path, flattened with
  /// multiplicity — add_flows walks this instead of re-running
  /// edges x gpu_path.
  std::vector<topo::LinkId> flow_links;
  /// flow_links condensed to sorted unique (link, multiplicity) pairs —
  /// the perf::FlowDelta the model subtracts on read when evaluating this
  /// job against the global flow table, and the key set of the cluster's
  /// link -> jobs interference index.
  std::vector<std::pair<topo::LinkId, int>> flow_link_counts;

  /// Absolute completion time under the current rate regime, recorded when
  /// the rate last changed (+inf while the rate is zero); the key of the
  /// cluster's finish-time min-heap.
  double finish_time = std::numeric_limits<double>::infinity();
  /// Index into the cluster's finish-time heap, -1 while absent (rate 0).
  int heap_pos = -1;

  double remaining_iterations() const {
    return static_cast<double>(request.iterations) - progress_iterations;
  }

  /// Progress extrapolated to `now` at the current rate — the exact
  /// piecewise-integration value. (progress_iterations, last_update) is
  /// only rewritten when the rate changes, so this is a pure function of
  /// the current rate regime: it does not depend on how many intermediate
  /// events banked *other* jobs, which is what makes scoped (O(touched))
  /// event updates byte-identical to full-cluster ones.
  double progress_at(double now) const {
    return std::min(progress_iterations + rate * (now - last_update),
                    static_cast<double>(request.iterations));
  }
};

/// Caller-owned scratch of ClusterState::co_runners_into. One per thread
/// (or per serial owner): the query is const and touches nothing else.
struct CoRunnerScratch {
  std::vector<std::pair<int, int>> sockets;  // (machine, socket), sorted
  std::vector<int> ids;  // jobs on the touched machines, sorted, unique
  std::vector<perf::CoRunner> co;  // the result
};

class ClusterState {
 public:
  ClusterState(const topo::TopologyGraph& topology,
               const perf::DlWorkloadModel& model);

  /// Enables lognormal execution noise: each placed job's iteration time
  /// is multiplied by exp(sigma * N(0,1)), drawn deterministically from
  /// `seed`. Models the cloud variability the paper cites as the reason
  /// profiles need only be "high-quality", not optimal; the schedulers
  /// keep predicting with the noise-free model.
  void set_execution_noise(double sigma, std::uint64_t seed = 1234);

  const topo::TopologyGraph& topology() const noexcept { return *topology_; }
  const perf::DlWorkloadModel& model() const noexcept { return *model_; }

  // --- allocation ----------------------------------------------------------
  bool gpu_free(int gpu) const { return owner_[static_cast<size_t>(gpu)] < 0; }
  /// Job id occupying `gpu`, or -1.
  int gpu_owner(int gpu) const { return owner_[static_cast<size_t>(gpu)]; }
  std::vector<int> free_gpus() const;
  std::vector<int> free_gpus_of_machine(int machine) const;
  /// O(1): maintained incrementally from allocation deltas.
  int free_gpu_count() const noexcept { return free_gpu_count_; }

  // --- capacity index ------------------------------------------------------
  // Free GPUs per machine and per socket, histograms of machines and of
  // sockets by free count, and the Eq. 5 numerator, all updated per GPU
  // flip in O(1) (DESIGN.md section 21). Schedulers skip or pre-score a
  // machine by its counts before building a free list; the driver and the
  // shard router decline a shape that cannot fit with one may_fit call,
  // and the router ranks cells by max_socket_free and fragmentation.
  /// Free GPUs on `machine`.
  int machine_free_count(int machine) const {
    return machine_free_[static_cast<size_t>(machine)];
  }
  /// Free GPUs per socket of `machine` (index = socket, as in
  /// TopologyGraph::socket_gpu_lists); the candidate pre-score reads the
  /// best socket from here instead of building a free list.
  std::span<const int> socket_free_counts(int machine) const {
    const size_t begin = socket_begin_[static_cast<size_t>(machine)];
    return {socket_free_.data() + begin,
            socket_begin_[static_cast<size_t>(machine) + 1] - begin};
  }
  /// Largest free-GPU count of any single machine: a top-down scan of
  /// the histogram, at most GPUs-per-machine + 1 buckets.
  int max_machine_free() const noexcept {
    int k = static_cast<int>(machine_hist_.size()) - 1;
    while (k > 0 && machine_hist_[static_cast<size_t>(k)] == 0) --k;
    return k;
  }
  /// Machines with at least one free GPU.
  int machines_with_free() const noexcept {
    return topology_->machine_count() - machine_hist_.front();
  }
  /// Entry k: machines with exactly k free GPUs.
  std::span<const int> machine_free_histogram() const noexcept {
    return machine_hist_;
  }
  /// Largest free-GPU count of any single socket: a top-down scan of the
  /// socket histogram, at most GPUs-per-socket + 1 buckets.
  int max_socket_free() const noexcept {
    int k = static_cast<int>(socket_hist_.size()) - 1;
    while (k > 0 && socket_hist_[static_cast<size_t>(k)] == 0) --k;
    return k;
  }
  /// Entry k: sockets with exactly k free GPUs.
  std::span<const int> socket_free_histogram() const noexcept {
    return socket_hist_;
  }
  /// O(1) necessary condition for placing `request` now — exactly the
  /// capacity rules check::audit_placement enforces on every placement:
  /// num_gpus free GPUs; for single-node jobs one machine holding all of
  /// them; for anti-collocated jobs num_gpus machines with a free GPU.
  /// False proves no valid placement exists; true promises nothing.
  bool may_fit(const jobgraph::JobRequest& request) const noexcept {
    return free_gpu_count_ >= request.num_gpus &&
           (!request.profile.single_node ||
            max_machine_free() >= request.num_gpus) &&
           (!request.profile.anti_collocate ||
            machines_with_free() >= request.num_gpus);
  }
  int running_job_count() const { return static_cast<int>(jobs_.size()); }

  /// Monotonic counter bumped by every allocation-relevant mutation
  /// (place, remove, test-only corruption): two calls observing the same
  /// version see the same GPU ownership, co-runners and link flows.
  std::uint64_t allocation_version() const noexcept { return version_; }

  /// Observer of allocation mutations. Fired synchronously after place()
  /// and restore_job() with allocated=true and after remove() with
  /// allocated=false, carrying the job's GPU ids; benchmarks count
  /// allocations through it. At most one listener; install it before any
  /// traffic. Not fired by corrupt_gpu_owner_for_test (the fault injector
  /// deliberately desynchronizes state).
  using AllocationListener =
      std::function<void(std::span<const int> gpus, bool allocated)>;
  void set_allocation_listener(AllocationListener listener) {
    allocation_listener_ = std::move(listener);
  }

  /// Places a job: banks progress of affected jobs, allocates GPUs,
  /// registers link flows, recomputes rates. `gpus` must all be free.
  void place(const jobgraph::JobRequest& request, std::vector<int> gpus,
             double now, double placement_utility = 0.0);

  /// Removes a finished/cancelled job and recomputes the others' rates.
  void remove(int job_id, double now);

  /// Snapshot-restore seam (svc subsystem): re-registers a job captured by
  /// a snapshot. Equivalent to place() at `now` followed by overwriting
  /// the recorded start time, banked progress, and execution-noise factor,
  /// then recomputing every rate — so the restored regime is exactly the
  /// piecewise-integration state the snapshot saw. `gpus` must be free;
  /// callers audit feasibility first (check::audit_placement).
  void restore_job(const jobgraph::JobRequest& request,
                   std::vector<int> gpus, double start_time,
                   double progress_iterations, double placement_utility,
                   double noise_factor, double now);

  const RunningJob* find(int job_id) const;
  const std::map<int, RunningJob>& running_jobs() const { return jobs_; }

  // --- execution model -----------------------------------------------------
  /// Checkpoints every job at `now`: banks progress, rebases last_update,
  /// and refreshes the stored finish times from the banked values. Called
  /// by the driver before snapshots so the snapshotting process and a
  /// process restored from the snapshot continue with bitwise-identical
  /// progress arithmetic. O(jobs) by design — per-event updates go through
  /// the scoped rate recompute instead.
  void bank_progress(double now);

  /// (job id, absolute completion time) of the job finishing next, given
  /// current rates; nullopt when nothing runs. O(1): the heap top. The
  /// returned time is the finish time stored when the job's rate last
  /// changed — the same piecewise-exact value the pre-heap scan
  /// recomputed per query, modulo query-point rounding.
  std::optional<std::pair<int, double>> next_completion(double now) const;

  /// Job ids whose stored finish time has been reached at `now`
  /// (ascending). The driver's completion event consumes this instead of
  /// banking and scanning every running job; cost is O(due · log jobs).
  std::vector<int> due_completions(double now) const;

  /// Link flow counts from all running jobs (index = LinkId).
  const perf::LinkFlows& link_flows() const noexcept { return flows_; }

  /// Fills `scratch.co` with the running jobs (excluding
  /// `exclude_job_id`) sharing any machine with a hypothetical placement on
  /// `gpus`, with same-socket contention flagged. Also leaves the gather
  /// behind: `scratch.sockets` holds the (machine, socket) pairs of `gpus`
  /// and `scratch.ids` every job on those machines, `exclude_job_id`
  /// included; `co` follows `ids` with the excluded id skipped.
  void co_runners_into(std::span<const int> gpus, int exclude_job_id,
                       CoRunnerScratch& scratch) const;

  /// Machines a GPU list touches (sorted, unique).
  std::vector<int> machines_of(std::span<const int> gpus) const;

  // --- Eq. 5 fragmentation -------------------------------------------------
  // Eq. 5 averages free/size over every socket that holds a GPU. The
  // capacity index keeps that sum in integers: with L the lcm of the
  // socket sizes, a socket contributes free·L/size, so the mean is one
  // division by L·S (S sockets). It is exact and independent of the order
  // GPUs flipped; on 2- and 4-GPU sockets every partial sum of free/size
  // is exact in double too, so the value is bit-identical to that walk.
  /// Average free fraction across all sockets of the cluster. O(1).
  double fragmentation() const noexcept {
    return fragmentation_sockets_ == 0
               ? 0.0
               : static_cast<double>(fragmentation_numerator_) /
                     (static_cast<double>(fragmentation_scale_) *
                      static_cast<double>(fragmentation_sockets_));
  }
  /// Eq. 5 over the sockets of the machines `gpus` (distinct ids) touches,
  /// once the free GPUs among them are taken: the hypothetical-placement
  /// term of the utility. O(|gpus|^2 + touched sockets), no allocation.
  double fragmentation_after(std::span<const int> gpus) const;
  /// S, L and the numerator sum of free·L/size of fragmentation(), for
  /// check::validate's replay and the sharded socket-weighted mean.
  int fragmentation_sockets() const noexcept { return fragmentation_sockets_; }
  long long fragmentation_scale() const noexcept {
    return fragmentation_scale_;
  }
  long long fragmentation_numerator() const noexcept {
    return fragmentation_numerator_;
  }

  /// Predicted iteration time for a hypothetical placement of `request`
  /// on `gpus` given everything currently running (used by schedulers for
  /// Eq. 4 interference estimates). Leaves `scratch` holding the
  /// co-runner gather of `gpus` excluding `request.id` (co_runners_into).
  perf::IterationBreakdown predict_iteration(
      const jobgraph::JobRequest& request, std::span<const int> gpus,
      CoRunnerScratch& scratch) const;

  /// Solo best-case iteration time of a request: profile anchor when
  /// available, else the model's pack-placement prediction on an idle
  /// machine. Independent of current allocations; cached per running job
  /// as RunningJob::solo_iteration_s.
  double solo_iteration_time(const jobgraph::JobRequest& request) const;

  /// Job ids currently occupying GPUs on `machine` (ascending).
  const std::vector<int>& jobs_of_machine(int machine) const {
    return jobs_by_machine_[static_cast<size_t>(machine)];
  }

  /// Job ids with at least one comm flow routed over `link` (ascending) —
  /// the interference index the scoped rate recompute and the check
  /// subsystem's audit read.
  const std::vector<int>& jobs_of_link(topo::LinkId link) const {
    return jobs_by_link_[static_cast<size_t>(link)];
  }

  /// One finish-time heap slot: (stored finish time, job id), min-heap on
  /// (time, id) so ties resolve to the smallest id like the pre-heap
  /// ordered-map scan did. Exposed for the check subsystem's audit.
  struct FinishEntry {
    double time = 0.0;
    int id = -1;
  };
  std::span<const FinishEntry> finish_heap() const noexcept {
    return finish_heap_;
  }

  /// Host-bandwidth demand (GB/s) of the jobs on `machine` (Section 4.3's
  /// t_bw accounting; capacity is model().params().host_bw_capacity_gbps).
  double host_bw_used(int machine) const {
    return host_bw_used_[static_cast<size_t>(machine)];
  }
  /// True when `machine` can additionally absorb `demand_gbps`.
  bool host_bw_available(int machine, double demand_gbps) const {
    return host_bw_used(machine) + demand_gbps <=
           model_->params().host_bw_capacity_gbps + 1e-9;
  }

  /// Fault injection for the check subsystem's tests: overwrites the owner
  /// of `gpu` with `job_id` (or -1) without any of the job-table
  /// bookkeeping place() performs, deliberately desynchronizing the
  /// ownership table from the job table so check::validate /
  /// check::audit_placement can be shown to catch corruption. The
  /// owner-derived occupancy counters ARE kept in sync with the corrupted
  /// table — they are a projection of owner_, and keeping them consistent
  /// preserves the audit's ability to pinpoint the job/owner mismatch
  /// itself. Never call outside tests.
  void corrupt_gpu_owner_for_test(int gpu, int job_id);
  /// Fault injection for the same tests: moves one socket from histogram
  /// bucket `from` to bucket `to` and changes nothing else, so the socket
  /// histogram drifts from ownership. Never call outside tests.
  void corrupt_socket_histogram_for_test(int from, int to) {
    --socket_hist_.at(static_cast<size_t>(from));
    ++socket_hist_.at(static_cast<size_t>(to));
  }

 private:
  /// Re-rates one job at `now`: recomputes its iteration time from current
  /// flows and co-runners, and — only when the rate value actually changed
  /// bitwise — banks progress at the old rate, rebases last_update, and
  /// refreshes the stored finish time + heap slot. The bitwise
  /// skip-on-equal-rate is what makes full and scoped recomputes write
  /// identical state (DESIGN.md section 20).
  void update_job_rate(RunningJob& job, double now);
  /// update_job_rate over every running job (the restore path).
  void recompute_all(double now);
  /// Job ids sharing a machine in `machines` or a link in `links` with a
  /// changed placement (sorted, unique) — the exact set whose rate inputs
  /// the change can have altered.
  void gather_touched(const std::vector<int>& machines,
                      std::span<const std::pair<topo::LinkId, int>> links,
                      std::vector<int>& ids) const;
  /// Recomputes `job`'s stored finish time from its banked progress and
  /// current rate at `now`, and re-seats its heap slot.
  void refresh_finish(RunningJob& job, double now);

  // Finish-time min-heap plumbing; entries order by (time, id).
  static bool finish_less(const FinishEntry& a, const FinishEntry& b) {
    return a.time < b.time || (a.time == b.time && a.id < b.id);
  }
  void heap_place(size_t i, const FinishEntry& entry);
  void heap_sift_up(size_t i);
  void heap_sift_down(size_t i);
  /// Inserts/moves/erases `job`'s heap slot to match its rate and stored
  /// finish time.
  void heap_update(RunningJob& job);
  void heap_erase(RunningJob& job);

  void add_flows(const RunningJob& job, int delta);
  void index_job(const RunningJob& job, bool insert);
  /// Maintains the O(1) occupancy counters and the capacity index across
  /// one GPU's allocation-state flip.
  void track_gpu(int gpu, bool allocated);
  /// Updates the obs gauges / trace counters that track occupancy from the
  /// incrementally maintained counters; a single branch (and O(1) work)
  /// when neither metrics nor cluster tracing is enabled.
  void publish_occupancy_metrics() const;

  const topo::TopologyGraph* topology_;
  const perf::DlWorkloadModel* model_;
  std::vector<int> owner_;    // per GPU: job id or -1
  perf::LinkFlows flows_;     // per link: number of comm flows
  std::map<int, RunningJob> jobs_;  // ordered for deterministic iteration
  std::vector<std::vector<int>> jobs_by_machine_;
  std::vector<std::vector<int>> jobs_by_link_;  // link -> job ids, ascending
  std::vector<double> host_bw_used_;  // per machine, GB/s
  std::vector<FinishEntry> finish_heap_;  // jobs with rate > 0
  // Occupancy counters and the capacity index, updated per GPU flip
  // (publish_occupancy_metrics, free_gpu_count and may_fit read them in
  // O(1)).
  std::vector<int> machine_free_;  // free GPUs per machine
  std::vector<int> machine_hist_;  // machines with exactly k free GPUs
  std::vector<int> socket_free_;   // free GPUs per (machine, socket)
  std::vector<size_t> socket_begin_;  // machine m: [begin[m], begin[m + 1])
  std::vector<int> socket_hist_ = {0};  // sockets with exactly k free GPUs
  // Eq. 5 in integers: per socket L/size (0 for a socket without GPUs),
  // L, S and the running sum of free·L/size.
  std::vector<long long> socket_weight_;
  long long fragmentation_scale_ = 1;
  int fragmentation_sockets_ = 0;
  long long fragmentation_numerator_ = 0;
  int free_gpu_count_ = 0;
  std::uint64_t version_ = 0;
  double noise_sigma_ = 0.0;
  util::Rng noise_rng_{1234};
  AllocationListener allocation_listener_;
  // Mutation-path scratch (serial by the state's confinement contract;
  // const readers bring their own).
  CoRunnerScratch scratch_;
  std::vector<int> touched_ids_;
};

}  // namespace gts::cluster
