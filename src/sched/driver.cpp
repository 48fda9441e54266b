#include "sched/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "check/audit.hpp"
#include "check/check.hpp"
#include "obs/explain.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace gts::sched {

Driver::Driver(const topo::TopologyGraph& topology,
               const perf::DlWorkloadModel& model, Scheduler& scheduler,
               DriverOptions options)
    : topology_(topology),
      model_(model),
      scheduler_(scheduler),
      options_(options),
      shared_utility_(options.utility_weights),
      state_(topology, model) {
  if (options_.allocation_listener) {
    state_.set_allocation_listener(std::move(options_.allocation_listener));
  }
  if (options_.noise_sigma > 0.0) {
    state_.set_execution_noise(options_.noise_sigma, options_.noise_seed);
  }
  if (options_.self_audit) {
    const util::Status status = check::validate(topology_);
    GTS_CHECK(status.is_ok(),
              "topology failed validation: ", status.error().message);
    engine_.set_post_event_hook([this] {
      const util::Status audit = check::validate(state_);
      GTS_CHECK(audit.is_ok(),
                "cluster self-audit failed at t=", engine_.now(), ": ",
                audit.error().message);
    });
  }
}

bool job_can_ever_fit(const jobgraph::JobRequest& request,
                      const topo::TopologyGraph& topology,
                      const perf::DlWorkloadModel& model) {
  // Section 4.3: a job demanding more host bandwidth than any machine
  // offers can never satisfy t_bw <= p_bw.
  if (request.profile.host_bw_demand_gbps >
      model.params().host_bw_capacity_gbps *
          (request.profile.single_node ? 1.0 : topology.machine_count())) {
    return false;
  }
  if (request.profile.anti_collocate) {
    // Tasks on distinct machines: a single-node job has only one machine,
    // so no placement of more than one task passes check::audit_placement.
    if (request.profile.single_node && request.num_gpus > 1) return false;
    return request.num_gpus <= topology.machine_count();
  }
  if (request.profile.single_node) {
    for (int machine = 0; machine < topology.machine_count(); ++machine) {
      if (static_cast<int>(topology.gpus_of_machine(machine).size()) >=
          request.num_gpus) {
        return true;
      }
    }
    return false;
  }
  return request.num_gpus <= topology.gpu_count();
}

std::string_view to_string(SubmitResult result) noexcept {
  switch (result) {
    case SubmitResult::kAccepted: return "accepted";
    case SubmitResult::kNeverFits: return "never_fits";
    case SubmitResult::kDuplicate: return "duplicate";
    case SubmitResult::kDraining: return "draining";
  }
  return "unknown";
}

DriverReport Driver::run(std::vector<jobgraph::JobRequest> jobs) {
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const jobgraph::JobRequest& a,
                      const jobgraph::JobRequest& b) {
                     return a.arrival_time < b.arrival_time;
                   });
  for (const jobgraph::JobRequest& job : jobs) {
    const SubmitResult result = submit(job);
    if (result == SubmitResult::kDuplicate) ++report_.rejected_jobs;
  }
  engine_.run();
  sync_report();
  report_.end_time = report_.recorder.makespan();
  return std::move(report_);
}

SubmitResult Driver::submit(const jobgraph::JobRequest& request) {
  if (draining_) return SubmitResult::kDraining;
  if (report_.recorder.find(request.id) != nullptr) {
    GTS_LOG_WARN("driver", "duplicate job id ", request.id, "; refused");
    return SubmitResult::kDuplicate;
  }
  jobgraph::JobRequest job = request;
  if (job.arrival_time < engine_.now()) job.arrival_time = engine_.now();
  report_.recorder.on_submit(job);
  if (!job_can_ever_fit(job, topology_, model_)) {
    report_.recorder.on_reject(job.id);
    ++report_.rejected_jobs;
    GTS_LOG_WARN("driver", "job ", job.id, " can never fit; rejected");
    return SubmitResult::kNeverFits;
  }
  const sim::EventHandle handle = engine_.schedule_at(
      job.arrival_time, [this, job]() { on_arrival(job); });
  pending_arrivals_.emplace(job.id, std::make_pair(handle, job));
  return SubmitResult::kAccepted;
}

bool Driver::cancel(int job_id) {
  const double now = engine_.now();
  if (const auto pending = pending_arrivals_.find(job_id);
      pending != pending_arrivals_.end()) {
    engine_.cancel(pending->second.first);
    pending_arrivals_.erase(pending);
    report_.recorder.on_cancel(job_id, now);
    return true;
  }
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->request.id == job_id) {
      queue_.erase(it);
      report_.recorder.on_cancel(job_id, now);
      return true;
    }
  }
  if (state_.find(job_id) != nullptr) {
    state_.remove(job_id, now);
    report_.recorder.on_cancel(job_id, now);
    // Freed capacity: let waiting jobs take it right away.
    ++capacity_version_;
    scheduling_pass();
    return true;
  }
  return false;
}

void Driver::advance_to(double t) {
  GTS_DCHECK(t >= engine_.now() - 1e-9, "advance into the past: t=", t,
             " now=", engine_.now());
  engine_.run_until(t);
  sync_report();
}

double Driver::advance_all() {
  engine_.run();
  sync_report();
  return engine_.now();
}

std::vector<jobgraph::JobRequest> Driver::pending_arrivals() const {
  std::vector<jobgraph::JobRequest> pending;
  pending.reserve(pending_arrivals_.size());
  for (const auto& [id, entry] : pending_arrivals_) {
    pending.push_back(entry.second);
  }
  return pending;
}

void Driver::sync_report() {
  report_.events = engine_.events_fired();
  const double makespan = report_.recorder.makespan();
  if (makespan > report_.end_time) report_.end_time = makespan;
}

DriverCounters Driver::counters() const {
  return {report_.decision_count, report_.decision_seconds, report_.events,
          report_.rejected_jobs};
}

LifecycleSummary summarize_lifecycle(
    std::vector<const cluster::JobRecord*> records) {
  std::sort(records.begin(), records.end(),
            [](const cluster::JobRecord* a, const cluster::JobRecord* b) {
              return a->id < b->id;
            });
  LifecycleSummary summary;
  double jct_total = 0.0;
  int jct_count = 0;
  double wait_total = 0.0;
  int wait_count = 0;
  for (const cluster::JobRecord* record : records) {
    if (record->terminal()) ++summary.terminal;
    summary.postponements += record->postponements;
    summary.degradations += record->degradation_events;
    if (record->slo_violated()) ++summary.slo_violations;
    const double slowdown = record->jct_slowdown();
    if (slowdown >= 0.0) {
      jct_total += slowdown;
      ++jct_count;
    }
    if (record->placed()) {
      wait_total += record->waiting_time();
      ++wait_count;
    }
  }
  if (jct_count > 0) summary.mean_jct_slowdown = jct_total / jct_count;
  if (wait_count > 0) summary.mean_waiting_time = wait_total / wait_count;
  return summary;
}

LifecycleSummary summarize_lifecycle(const cluster::Recorder& recorder) {
  std::vector<const cluster::JobRecord*> records;
  records.reserve(recorder.records().size());
  for (const cluster::JobRecord& record : recorder.records()) {
    records.push_back(&record);
  }
  return summarize_lifecycle(std::move(records));
}

LifecycleSummary Driver::lifecycle() const {
  return summarize_lifecycle(report_.recorder);
}

std::vector<ShardInfo> Driver::shard_infos() const {
  ShardInfo info;
  info.shard = 0;
  info.machines = topology_.machine_count();
  info.gpus = topology_.gpu_count();
  info.free_gpus = state_.free_gpu_count();
  info.running = state_.running_job_count();
  info.queued = queue_depth();
  info.fragmentation = state_.fragmentation();
  info.decisions = report_.decision_count;
  for (const cluster::JobRecord& record : report_.recorder.records()) {
    if (record.placed()) ++info.placements;
  }
  info.routed =
      static_cast<long long>(report_.recorder.records().size());
  return {info};
}

RunningJobView running_view(const cluster::RunningJob& job,
                            std::span<const int> gpus) {
  RunningJobView view;
  view.request = &job.request;
  view.gpus = gpus;
  view.start_time = job.start_time;
  view.progress_iterations = job.progress_iterations;
  view.last_update = job.last_update;
  view.rate = job.rate;
  view.placement_utility = job.placement_utility;
  view.noise_factor = job.noise_factor;
  view.p2p = job.p2p;
  return view;
}

void Driver::visit_running(
    const std::function<bool(const RunningJobView&)>& fn) const {
  for (const auto& [id, job] : state_.running_jobs()) {
    if (!fn(running_view(job, job.gpus))) return;
  }
}

void Driver::visit_waiting(
    const std::function<bool(const WaitingView&)>& fn) const {
  for (const QueueEntry& entry : queue_) {
    if (!fn({&entry.request, entry.attempted_version})) return;
  }
}

void Driver::visit_records(
    const std::function<bool(const cluster::JobRecord&)>& fn) const {
  for (const cluster::JobRecord& record : report_.recorder.records()) {
    if (!fn(record)) return;
  }
}

std::optional<cluster::JobRecord> Driver::job_record(int job_id) const {
  if (const cluster::JobRecord* record = report_.recorder.find(job_id)) {
    return *record;
  }
  return std::nullopt;
}

util::Status Driver::validate() const { return check::validate(state_); }

util::Status Driver::begin_restore(double now,
                                   std::uint64_t capacity_version) {
  if (state_.running_job_count() > 0 || !queue_.empty() ||
      engine_.has_pending() || report_.decision_count > 0) {
    return util::Error{"restore requires a freshly constructed driver"};
  }
  if (now < 0.0) return util::Error{"restore: negative simulated time"};
  engine_.fast_forward(now);
  capacity_version_ = capacity_version;
  return util::Status::ok();
}

util::Status Driver::restore_running(const jobgraph::JobRequest& request,
                                     const std::vector<int>& gpus,
                                     double start_time,
                                     double progress_iterations,
                                     double placement_utility,
                                     double noise_factor,
                                     int postponements) {
  // Replay the placement through the feasibility audit before enacting
  // it: a corrupted or stale snapshot must not poison the cluster state.
  if (util::Status audit = check::audit_placement(request, gpus, state_);
      !audit) {
    return audit.error().with_context(
        util::fmt("restore job {}", request.id));
  }
  if (progress_iterations < 0.0 ||
      progress_iterations >
          static_cast<double>(request.iterations) + 1e-6) {
    return util::Error{util::fmt("restore job {}: progress {} out of bounds",
                                 request.id, progress_iterations)};
  }
  if (noise_factor <= 0.0) {
    return util::Error{
        util::fmt("restore job {}: noise_factor must be > 0", request.id)};
  }
  report_.recorder.on_submit(request);
  state_.restore_job(request, gpus, start_time, progress_iterations,
                     placement_utility, noise_factor, engine_.now());
  const cluster::RunningJob* running = state_.find(request.id);
  report_.recorder.on_place(request.id, start_time, gpus, placement_utility,
                            running != nullptr && running->p2p);
  if (cluster::JobRecord* record = report_.recorder.find(request.id)) {
    record->postponements = postponements;
  }
  return util::Status::ok();
}

void Driver::restore_waiting(const jobgraph::JobRequest& request,
                             std::uint64_t attempted_version,
                             int postponements, int /*shard_hint*/) {
  report_.recorder.on_submit(request);
  if (cluster::JobRecord* record = report_.recorder.find(request.id)) {
    record->postponements = postponements;
  }
  queue_.push_back({request, attempted_version});
}

util::Status check_terminal_record(const cluster::JobRecord& record,
                                   int gpu_count) {
  const auto fail = [&](const char* what) {
    return util::Error{util::fmt("restore job {}: {}", record.id, what)};
  };
  for (const double value :
       {record.arrival, record.start, record.end, record.min_utility,
        record.placement_utility, record.best_solo_time}) {
    if (!std::isfinite(value)) return fail("non-finite time or utility");
  }
  // -1 is the "never placed" / "never ended" sentinel.
  const auto time_or_unset = [](double t) { return t >= 0.0 || t == -1.0; };
  if (record.arrival < 0.0 || record.best_solo_time < 0.0 ||
      !time_or_unset(record.start) || !time_or_unset(record.end) ||
      record.num_gpus < 1 || record.postponements < 0 ||
      record.degradation_events < 0) {
    return fail("negative time, GPU count or counter");
  }
  // A rejected job never runs or ends; a finished one ran; a cancelled
  // one may have run.
  const bool consistent =
      record.rejected
          ? !record.cancelled && !record.placed() && record.end < 0.0
          : record.end >= 0.0 && record.end >= record.start &&
                (record.cancelled || record.placed());
  if (!consistent) return fail("times do not match the terminal state");
  if (record.gpus.size() !=
      (record.placed() ? static_cast<size_t>(record.num_gpus) : 0)) {
    return fail("GPU list does not match the placement");
  }
  for (const int gpu : record.gpus) {
    if (gpu < 0 || gpu >= gpu_count) return fail("GPU id out of range");
  }
  return util::Status::ok();
}

util::Status Driver::restore_record(const cluster::JobRecord& record) {
  if (auto status = check_terminal_record(record, topology_.gpu_count());
      !status) {
    return status;
  }
  if (!report_.recorder.import_record(record)) {
    return util::Error{
        util::fmt("restore job {}: id already known", record.id)};
  }
  if (record.rejected) ++report_.rejected_jobs;
  return util::Status::ok();
}

util::Status Driver::finish_restore() {
  if (util::Status status = check::validate(state_); !status) {
    return status.error().with_context("restored cluster state");
  }
  arm_completion_event();
  return util::Status::ok();
}

void Driver::on_arrival(const jobgraph::JobRequest& request) {
  pending_arrivals_.erase(request.id);
  queue_.push_back({request, ~0ULL});
  scheduling_pass();
}

void Driver::on_completion_event() {
  completion_event_ = sim::kInvalidEvent;
  const double now = engine_.now();
  const std::int64_t t0_us = obs::wall_now_us();
  // Jobs whose stored finish time has been reached (ties arrive together:
  // identical rate regimes store bitwise-equal finish times). No
  // cluster-wide banking — every untouched job's progress extrapolates
  // exactly from its regime anchor, and remove() re-rates only the
  // machine/link sharers of each finished job.
  const std::vector<int> done = state_.due_completions(now);
  for (const int id : done) {
    state_.remove(id, now);
    report_.recorder.on_finish(id, now);
  }
  const double advance_us = static_cast<double>(obs::wall_now_us() - t0_us);
  report_.advance_seconds += advance_us * 1e-6;
  ++report_.advance_count;
  report_.advance_latency_us.record(advance_us);
  GTS_METRIC_HISTOGRAM("sched.advance_latency_us", advance_us,
                       obs::latency_bounds_us());
  if (!done.empty()) ++capacity_version_;
  scheduling_pass();
}

void Driver::checkpoint_progress() {
  state_.bank_progress(engine_.now());
  arm_completion_event();
}

void Driver::arm_completion_event() {
  if (completion_event_ != sim::kInvalidEvent) {
    engine_.cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
  if (const auto next = state_.next_completion(engine_.now())) {
    completion_event_ = engine_.schedule_at(
        next->second, [this]() { on_completion_event(); });
  }
}

void Driver::scheduling_pass() {
  const double now = engine_.now();
  obs::SpanGuard pass_span(obs::kSched, "sched.pass");
  pass_span.arg("queue", static_cast<double>(queue_.size()));

  // Algorithm 1: offer queued jobs oldest-first while resources remain.
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (state_.free_gpu_count() == 0) break;
    if (it->attempted_version == capacity_version_) {
      // Already declined at this capacity state; nothing has freed since.
      if (scheduler_.blocking_queue()) break;
      ++it;
      continue;
    }
    const jobgraph::JobRequest& request = it->request;
    if (!state_.may_fit(request)) {
      // Capacity gate (DESIGN.md section 21): no valid placement exists,
      // so every policy would decline. Decline it the same way — same
      // attempted version and postponement count — without the offer.
      it->attempted_version = capacity_version_;
      report_.recorder.on_postpone(request.id);
      ++report_.capacity_skips;
      GTS_METRIC_COUNT("sched.capacity_skips", 1);
      if (scheduler_.blocking_queue()) break;
      ++it;
      continue;
    }

    obs::SpanGuard decision_span(obs::kSched, "sched.decide");
    decision_span.arg("job", request.id)
        .arg("gpus", request.num_gpus);
    std::optional<obs::DecisionScope> explain_scope;
    if (obs::explain_enabled()) {
      explain_scope.emplace(scheduler_.name(), request.id, request.num_gpus,
                            request.min_utility, now);
    }

    const std::int64_t t0_us = obs::wall_now_us();
    std::optional<Placement> placement = scheduler_.place(request, state_);
    const double decision_us =
        static_cast<double>(obs::wall_now_us() - t0_us);
    const double decision_seconds = decision_us * 1e-6;
    report_.decision_seconds += decision_seconds;
    ++report_.decision_count;
    report_.decision_latency_us.record(decision_us);
    (placement ? report_.placed_latency_us : report_.declined_latency_us)
        .record(decision_us);
    GTS_METRIC_COUNT("sched.decisions", 1);
    GTS_METRIC_HISTOGRAM("sched.decision_latency_us", decision_us,
                         obs::latency_bounds_us());
    GTS_METRIC_WINDOW("sched.decision_latency_us", decision_us,
                      obs::latency_bounds_us());

    if (!placement) {
      it->attempted_version = capacity_version_;
      report_.recorder.on_postpone(request.id);
      GTS_METRIC_COUNT("sched.declines", 1);
      GTS_FLIGHT_AT(obs::FlightKind::kPostponement, request.id, decision_us,
                    static_cast<double>(queue_.size()),
                    scheduler_.blocking_queue() ? "postponed" : "declined",
                    now);
      if (explain_scope) {
        explain_scope->record().outcome =
            scheduler_.blocking_queue() ? "postponed" : "declined";
        explain_scope->record().decision_us = decision_us;
        explain_scope->commit();
      }
      if (scheduler_.blocking_queue()) break;  // strict FIFO head blocking
      ++it;
      continue;
    }
    if (options_.self_audit) {
      const util::Status audit =
          check::audit_placement(request, placement->gpus, state_);
      GTS_CHECK(audit.is_ok(), "placement audit for job ", request.id, ": ",
                audit.error().message);
    }
    // Greedy schedulers leave utility at 0: score their placement with
    // the shared model so SLO accounting covers every policy.
    double utility = placement->utility;
    if (utility == 0.0) {
      utility =
          shared_utility_.placement_utility(request, placement->gpus, state_);
    }
    if (explain_scope) {
      // Eq. 3/4/5 breakdown of the chosen mapping, evaluated against the
      // pre-placement state (interference looks at the disturbed jobs).
      const UtilityBreakdown breakdown =
          shared_utility_.evaluate(request, placement->gpus, state_);
      obs::DecisionRecord& record = explain_scope->record();
      record.outcome = "placed";
      record.gpus = placement->gpus;
      record.satisfied = placement->satisfied;
      record.decision_us = decision_us;
      record.chosen.comm_cost = breakdown.comm_cost;
      record.chosen.comm_utility = breakdown.comm_utility;
      record.chosen.interference = breakdown.interference;
      record.chosen.frag_omega = breakdown.frag_omega;
      record.chosen.frag_utility = breakdown.frag_utility;
      record.chosen.comm_weight = breakdown.comm_weight;
      record.chosen.utility = utility != 0.0 ? utility : breakdown.utility;
      record.chosen.has_breakdown = true;
      explain_scope->commit();
    }
    state_.place(request, placement->gpus, now, utility);
    const cluster::RunningJob* running = state_.find(request.id);
    report_.recorder.on_place(request.id, now, placement->gpus, utility,
                              running != nullptr && running->p2p);
    GTS_METRIC_COUNT("sched.placements", 1);
    if (utility + 1e-9 < request.min_utility) {
      GTS_METRIC_COUNT("sched.degradations", 1);
    }
    GTS_METRIC_WINDOW("sched.placements", 1.0, obs::depth_bounds());
    GTS_FLIGHT_AT(obs::FlightKind::kDecision, request.id, decision_us,
                  utility, "placed", now);
    it = queue_.erase(it);
  }
  GTS_METRIC_WINDOW("sched.queue_depth",
                    static_cast<double>(queue_.size()), obs::depth_bounds());
  GTS_METRIC_WINDOW("cluster.fragmentation", state_.fragmentation(),
                    obs::fraction_bounds());
  arm_completion_event();
}

}  // namespace gts::sched
