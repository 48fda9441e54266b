#include "shard/sharded_driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "check/audit.hpp"
#include "check/check.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace gts::shard {

ShardedDriver::ShardedDriver(const topo::TopologyGraph& topology,
                             const perf::DlWorkloadModel& model,
                             ShardedOptions options)
    : model_(model), options_(std::move(options)) {
  GTS_CHECK(!options_.driver.allocation_listener,
            "ShardedOptions::driver.allocation_listener is unsupported: "
            "cells would report cell-local GPU ids");
  const int machines = std::max(1, topology.machine_count());
  const int shards = std::clamp(options_.shards, 1, machines);
  cells_.reserve(static_cast<size_t>(shards));
  gpu_shard_.assign(static_cast<size_t>(topology.gpu_count()), -1);
  gpu_local_.assign(static_cast<size_t>(topology.gpu_count()), -1);
  const auto ranges = partition_machines(machines, shards);
  for (int s = 0; s < shards; ++s) {
    Cell cell;
    cell.topo = std::make_unique<CellTopology>(
        extract_cell(topology, ranges[static_cast<size_t>(s)].first,
                     ranges[static_cast<size_t>(s)].second));
    for (size_t local = 0; local < cell.topo->gpu_to_global.size(); ++local) {
      const int global = cell.topo->gpu_to_global[local];
      gpu_shard_[static_cast<size_t>(global)] = s;
      gpu_local_[static_cast<size_t>(global)] = static_cast<int>(local);
    }
    cell.scheduler =
        sched::make_scheduler(options_.policy, options_.driver.utility_weights);
    cell.driver = std::make_unique<sched::Driver>(
        cell.topo->graph, model_, *cell.scheduler, options_.driver);
    cells_.push_back(std::move(cell));
  }
}

bool ShardedDriver::known_id(int job_id) const {
  return pending_.count(job_id) > 0 || routed_shard_.count(job_id) > 0 ||
         local_recorder_.find(job_id) != nullptr;
}

bool ShardedDriver::any_cell_fits(const jobgraph::JobRequest& request) const {
  for (const Cell& cell : cells_) {
    if (sched::job_can_ever_fit(request, cell.topo->graph, model_)) return true;
  }
  return false;
}

sched::SubmitResult ShardedDriver::submit(const jobgraph::JobRequest& request) {
  if (draining_) return sched::SubmitResult::kDraining;
  if (known_id(request.id)) {
    GTS_LOG_WARN("shard", "duplicate job id ", request.id, "; refused");
    return sched::SubmitResult::kDuplicate;
  }
  PendingJob pending{request, seq_counter_++};
  if (pending.request.arrival_time < now_) {
    pending.request.arrival_time = now_;
  }
  // A job no cell can ever host is rejected up front — sharded placement
  // is cell-local, so "fits the datacenter but not one cell" is a reject
  // (documented in DESIGN.md section 19).
  if (!any_cell_fits(pending.request)) {
    local_recorder_.on_submit(pending.request);
    local_recorder_.on_reject(request.id);
    ++rejected_jobs_;
    GTS_LOG_WARN("shard", "job ", request.id,
                 " can never fit any cell; rejected");
    return sched::SubmitResult::kNeverFits;
  }
  pending_.emplace(request.id, std::move(pending));
  return sched::SubmitResult::kAccepted;
}

bool ShardedDriver::cancel(int job_id) {
  if (const auto it = pending_.find(job_id); it != pending_.end()) {
    local_recorder_.on_submit(it->second.request);
    local_recorder_.on_cancel(job_id, now_);
    pending_.erase(it);
    return true;
  }
  if (const auto it = routed_shard_.find(job_id); it != routed_shard_.end()) {
    return cells_[static_cast<size_t>(it->second)].driver->cancel(job_id);
  }
  return false;
}

void ShardedDriver::drain() {
  // Only the facade refuses submits: cells must keep accepting the routed
  // arrivals the facade already admitted.
  draining_ = true;
}

bool ShardedDriver::draining() const { return draining_; }

void ShardedDriver::advance_cells_to(double t) {
  for (Cell& cell : cells_) {
    sched::Driver& driver = *cell.driver;
    if (std::isinf(t)) {
      driver.advance_all();
    } else if (driver.now() <= t) {
      driver.advance_to(t);
    }
  }
}

std::vector<ShardCandidate> ShardedDriver::candidates() const {
  std::vector<ShardCandidate> candidates;
  candidates.reserve(cells_.size());
  for (const Cell& cell : cells_) {
    candidates.push_back({&cell.driver->state(), cell.driver->queue_depth()});
  }
  return candidates;
}

int ShardedDriver::route_one(const jobgraph::JobRequest& request) {
  const std::int64_t t0_us = obs::wall_now_us();
  const RouteDecision decision = route_job(request, candidates(), model_);
  const double latency_us = static_cast<double>(obs::wall_now_us() - t0_us);
  route_latency_us_.record(latency_us);
  ++routed_;
  filtered_ += decision.filtered;
  if (decision.exhausted) ++exhausted_;
  GTS_METRIC_COUNT("shard.routed", 1);
  GTS_METRIC_COUNT("shard.filtered", decision.filtered);
  if (decision.exhausted) GTS_METRIC_COUNT("shard.exhausted", 1);
  GTS_METRIC_HISTOGRAM("shard.route_latency_us", latency_us,
                       obs::latency_bounds_us());
  GTS_CHECK(decision.shard >= 0, "router found no cell for job ", request.id,
            " after the admission ever-fit pre-check");
  return decision.shard;
}

void ShardedDriver::route_batch(double ta, std::vector<PendingJob> batch) {
  // Bring every cell to the arrival timestamp first, so completions up to
  // `ta` have freed capacity in the cell indexes the router reads.
  advance_cells_to(ta);
  std::sort(batch.begin(), batch.end(),
            [](const PendingJob& a, const PendingJob& b) {
              return a.seq < b.seq;
            });
  for (PendingJob& pending : batch) {
    const int shard = route_one(pending.request);
    Cell& cell = cells_[static_cast<size_t>(shard)];
    ++cell.routed;
    routed_shard_.emplace(pending.request.id, shard);
    const sched::SubmitResult result = cell.driver->submit(pending.request);
    GTS_CHECK(result == sched::SubmitResult::kAccepted, "cell ", shard,
              " refused routed job ", pending.request.id, ": ",
              sched::to_string(result));
  }
}

void ShardedDriver::route_pending_until(double t) {
  if (pending_.empty()) return;
  std::vector<PendingJob> due;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.request.arrival_time <= t) {
      due.push_back(std::move(it->second));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  if (due.empty()) return;
  std::sort(due.begin(), due.end(),
            [](const PendingJob& a, const PendingJob& b) {
              if (a.request.arrival_time != b.request.arrival_time) {
                return a.request.arrival_time < b.request.arrival_time;
              }
              return a.seq < b.seq;
            });
  size_t i = 0;
  while (i < due.size()) {
    const double ta = due[i].request.arrival_time;
    size_t j = i;
    while (j < due.size() && due[j].request.arrival_time == ta) ++j;
    route_batch(ta, std::vector<PendingJob>(
                        std::make_move_iterator(due.begin() + i),
                        std::make_move_iterator(due.begin() + j)));
    i = j;
  }
}

void ShardedDriver::advance_to(double t) {
  GTS_DCHECK(t >= now_ - 1e-9, "advance into the past: t=", t,
             " now=", now_);
  route_pending_until(t);
  advance_cells_to(t);
  if (t > now_) now_ = t;
}

double ShardedDriver::advance_all() {
  constexpr double kEnd = std::numeric_limits<double>::infinity();
  route_pending_until(kEnd);
  advance_cells_to(kEnd);
  for (const Cell& cell : cells_) {
    now_ = std::max(now_, cell.driver->now());
  }
  // Sync straggler cell clocks so every cell reads the facade time.
  advance_cells_to(now_);
  return now_;
}

void ShardedDriver::checkpoint_progress() {
  for (const Cell& cell : cells_) cell.driver->checkpoint_progress();
}

bool ShardedDriver::idle() const {
  if (!pending_.empty()) return false;
  for (const Cell& cell : cells_) {
    if (!cell.driver->idle()) return false;
  }
  return true;
}

double ShardedDriver::now() const { return now_; }

int ShardedDriver::queue_depth() const {
  int depth = 0;
  for (const Cell& cell : cells_) depth += cell.driver->queue_depth();
  return depth;
}

int ShardedDriver::pending_count() const {
  // A routed arrival whose timestamp equals the cell clock has not fired
  // yet — it is pending inside the cell driver, not the facade.
  int count = static_cast<int>(pending_.size());
  for (const Cell& cell : cells_) count += cell.driver->pending_count();
  return count;
}

std::uint64_t ShardedDriver::capacity_version() const {
  std::uint64_t version = 0;
  for (const Cell& cell : cells_) version += cell.driver->capacity_version();
  return version;
}

std::uint64_t ShardedDriver::allocation_version() const {
  std::uint64_t version = 0;
  for (const Cell& cell : cells_) {
    version += cell.driver->allocation_version();
  }
  return version;
}

int ShardedDriver::running_job_count() const {
  int count = 0;
  for (const Cell& cell : cells_) count += cell.driver->running_job_count();
  return count;
}

int ShardedDriver::free_gpu_count() const {
  int count = 0;
  for (const Cell& cell : cells_) count += cell.driver->free_gpu_count();
  return count;
}

double ShardedDriver::fragmentation() const {
  // Socket-weighted mean over cells == the whole-cluster Eq. 5 mean.
  double weighted = 0.0;
  int sockets = 0;
  for (const Cell& cell : cells_) {
    const int cell_sockets = cell.driver->state().fragmentation_sockets();
    weighted += cell.driver->fragmentation() * cell_sockets;
    sockets += cell_sockets;
  }
  return sockets == 0 ? 0.0 : weighted / static_cast<double>(sockets);
}

sched::DriverCounters ShardedDriver::counters() const {
  sched::DriverCounters total;
  for (const Cell& cell : cells_) {
    const sched::DriverCounters c = cell.driver->counters();
    total.decision_count += c.decision_count;
    total.decision_seconds += c.decision_seconds;
    total.events += c.events;
    total.rejected_jobs += c.rejected_jobs;
  }
  total.rejected_jobs += rejected_jobs_ + duplicate_jobs_;
  return total;
}

sched::LifecycleSummary ShardedDriver::lifecycle() const {
  std::vector<const cluster::JobRecord*> records;
  const auto add = [&records](const cluster::Recorder& recorder) {
    for (const cluster::JobRecord& record : recorder.records()) {
      records.push_back(&record);
    }
  };
  add(local_recorder_);
  for (const Cell& cell : cells_) add(cell.driver->recorder());
  return sched::summarize_lifecycle(std::move(records));
}

std::vector<sched::ShardInfo> ShardedDriver::shard_infos() const {
  std::vector<sched::ShardInfo> infos;
  infos.reserve(cells_.size());
  for (int s = 0; s < static_cast<int>(cells_.size()); ++s) {
    const Cell& cell = cells_[static_cast<size_t>(s)];
    sched::ShardInfo info;
    info.shard = s;
    info.machines = cell.topo->graph.machine_count();
    info.gpus = cell.topo->graph.gpu_count();
    info.free_gpus = cell.driver->free_gpu_count();
    info.running = cell.driver->running_job_count();
    info.queued = cell.driver->queue_depth();
    info.fragmentation = cell.driver->fragmentation();
    info.decisions = cell.driver->report().decision_count;
    for (const cluster::JobRecord& record :
         cell.driver->recorder().records()) {
      if (record.placed()) ++info.placements;
    }
    info.routed = cell.routed;
    infos.push_back(info);
  }
  return infos;
}

sched::RouterTelemetry ShardedDriver::router() const {
  sched::RouterTelemetry telemetry;
  telemetry.routed = routed_;
  telemetry.filtered = filtered_;
  telemetry.exhausted = exhausted_;
  telemetry.route_latency_us = route_latency_us_;
  return telemetry;
}

std::vector<int> ShardedDriver::to_global(const Cell& cell,
                                          std::span<const int> gpus) const {
  std::vector<int> global;
  global.reserve(gpus.size());
  for (const int gpu : gpus) {
    global.push_back(cell.topo->gpu_to_global.at(static_cast<size_t>(gpu)));
  }
  return global;
}

cluster::JobRecord ShardedDriver::translated_record(
    const Cell& cell, const cluster::JobRecord& record) const {
  cluster::JobRecord copy = record;
  if (!copy.gpus.empty()) copy.gpus = to_global(cell, copy.gpus);
  return copy;
}

void ShardedDriver::visit_running(
    const std::function<bool(const sched::RunningJobView&)>& fn) const {
  // K-way merge by job id over the cells' id-ordered running maps.
  using Iter = std::map<int, cluster::RunningJob>::const_iterator;
  std::vector<Iter> its;
  std::vector<Iter> ends;
  for (const Cell& cell : cells_) {
    its.push_back(cell.driver->state().running_jobs().begin());
    ends.push_back(cell.driver->state().running_jobs().end());
  }
  std::vector<int> scratch;
  while (true) {
    int best = -1;
    for (int i = 0; i < static_cast<int>(its.size()); ++i) {
      if (its[static_cast<size_t>(i)] == ends[static_cast<size_t>(i)]) {
        continue;
      }
      if (best < 0 || its[static_cast<size_t>(i)]->first <
                          its[static_cast<size_t>(best)]->first) {
        best = i;
      }
    }
    if (best < 0) return;
    const Cell& cell = cells_[static_cast<size_t>(best)];
    const cluster::RunningJob& job = its[static_cast<size_t>(best)]->second;
    scratch = to_global(cell, job.gpus);
    if (!fn(sched::running_view(job, scratch))) return;
    ++its[static_cast<size_t>(best)];
  }
}

void ShardedDriver::visit_waiting(
    const std::function<bool(const sched::WaitingView&)>& fn) const {
  struct Item {
    double arrival;
    int id;
    const sched::Driver::QueueEntry* entry;
    const sched::Driver* driver;
    int shard;
  };
  std::vector<Item> items;
  for (size_t shard = 0; shard < cells_.size(); ++shard) {
    const Cell& cell = cells_[shard];
    for (const sched::Driver::QueueEntry& entry : cell.driver->waiting()) {
      items.push_back({entry.request.arrival_time, entry.request.id, &entry,
                       cell.driver.get(), static_cast<int>(shard)});
    }
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  });
  // Per-cell attempted versions are meaningless outside their cell;
  // publish them normalized into the facade's summed version space:
  // "declined at the current capacity" keeps that meaning, anything
  // stale becomes the never-attempted sentinel (a re-offer, which is
  // semantically what a stale version causes anyway).
  const std::uint64_t global_version = capacity_version();
  for (const Item& item : items) {
    sched::WaitingView view;
    view.request = &item.entry->request;
    view.attempted_version =
        item.entry->attempted_version == item.driver->capacity_version()
            ? global_version
            : ~0ULL;
    view.shard = item.shard;
    if (!fn(view)) return;
  }
}

void ShardedDriver::visit_records(
    const std::function<bool(const cluster::JobRecord&)>& fn) const {
  std::vector<cluster::JobRecord> records;
  for (const cluster::JobRecord& record : local_recorder_.records()) {
    records.push_back(record);
  }
  for (const Cell& cell : cells_) {
    for (const cluster::JobRecord& record : cell.driver->recorder().records()) {
      records.push_back(translated_record(cell, record));
    }
  }
  std::sort(records.begin(), records.end(),
            [](const cluster::JobRecord& a, const cluster::JobRecord& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.id < b.id;
            });
  for (const cluster::JobRecord& record : records) {
    if (!fn(record)) return;
  }
}

std::optional<cluster::JobRecord> ShardedDriver::job_record(
    int job_id) const {
  if (const cluster::JobRecord* record = local_recorder_.find(job_id)) {
    return *record;
  }
  const auto it = routed_shard_.find(job_id);
  if (it == routed_shard_.end()) return std::nullopt;
  const Cell& cell = cells_[static_cast<size_t>(it->second)];
  if (const cluster::JobRecord* record =
          cell.driver->recorder().find(job_id)) {
    return translated_record(cell, *record);
  }
  return std::nullopt;
}

std::vector<jobgraph::JobRequest> ShardedDriver::pending_arrivals() const {
  std::vector<jobgraph::JobRequest> pending;
  pending.reserve(pending_.size());
  for (const auto& [id, entry] : pending_) pending.push_back(entry.request);
  // Arrivals already routed into a cell but not yet fired there (their
  // timestamp equals the cell clock) are pending too — a snapshot must
  // carry them or they would vanish across a restore. Requests hold no
  // GPU ids, so no translation is needed; id order matches the facade
  // map's order for re-snapshot byte-identity.
  for (const Cell& cell : cells_) {
    for (jobgraph::JobRequest& request : cell.driver->pending_arrivals()) {
      pending.push_back(std::move(request));
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const jobgraph::JobRequest& a, const jobgraph::JobRequest& b) {
              return a.id < b.id;
            });
  return pending;
}

util::Status ShardedDriver::begin_restore(double now,
                                          std::uint64_t capacity_version) {
  if (now_ != 0.0 || !pending_.empty() || !routed_shard_.empty() ||
      routed_ != 0) {
    return util::Error{
        "restore requires a freshly constructed sharded driver"};
  }
  // The summed version space is preserved by giving cell 0 the whole
  // version and every other cell zero: the facade's capacity_version()
  // then equals the snapshot's, and waiting entries restore against it.
  for (int s = 0; s < static_cast<int>(cells_.size()); ++s) {
    if (auto status = cells_[static_cast<size_t>(s)].driver->begin_restore(
            now, s == 0 ? capacity_version : 0);
        !status) {
      return status;
    }
  }
  now_ = now;
  return util::Status::ok();
}

util::Status ShardedDriver::restore_running(
    const jobgraph::JobRequest& request, const std::vector<int>& gpus,
    double start_time, double progress_iterations, double placement_utility,
    double noise_factor, int postponements) {
  if (gpus.empty()) {
    return util::Error{
        util::fmt("restore job {}: no GPUs in snapshot", request.id)};
  }
  int shard = -1;
  std::vector<int> local;
  local.reserve(gpus.size());
  for (const int gpu : gpus) {
    if (gpu < 0 || gpu >= static_cast<int>(gpu_shard_.size())) {
      return util::Error{util::fmt("restore job {}: GPU {} out of range",
                                   request.id, gpu)};
    }
    const int owner = gpu_shard_[static_cast<size_t>(gpu)];
    if (shard < 0) shard = owner;
    if (owner != shard) {
      return util::Error{util::fmt(
          "restore job {}: placement spans cells {} and {} — snapshot is "
          "incompatible with this shard layout",
          request.id, shard, owner)};
    }
    local.push_back(gpu_local_[static_cast<size_t>(gpu)]);
  }
  Cell& cell = cells_[static_cast<size_t>(shard)];
  if (auto status = cell.driver->restore_running(
          request, local, start_time, progress_iterations, placement_utility,
          noise_factor, postponements);
      !status) {
    return status;
  }
  routed_shard_.emplace(request.id, shard);
  ++cell.routed;
  return util::Status::ok();
}

void ShardedDriver::restore_waiting(const jobgraph::JobRequest& request,
                                    std::uint64_t attempted_version,
                                    int postponements, int shard_hint) {
  int shard = -1;
  if (shard_hint >= 0 && shard_hint < static_cast<int>(cells_.size())) {
    // The snapshot recorded which cell held the job; re-queue it there so
    // the continuation replays the original run exactly. Routing is a
    // function of arrival-time state, which a restore cannot reproduce.
    shard = shard_hint;
  } else {
    // Older snapshot (or a different shard layout): re-route against the
    // restored occupancy — running jobs restore first, so the cell
    // indexes are current. No router telemetry: this is reconstruction.
    const RouteDecision decision = route_job(request, candidates(), model_);
    shard = decision.shard >= 0 ? decision.shard : 0;
  }
  Cell& cell = cells_[static_cast<size_t>(shard)];
  const std::uint64_t local_version =
      attempted_version == capacity_version()
          ? cell.driver->capacity_version()
          : ~0ULL;
  cell.driver->restore_waiting(request, local_version, postponements);
  routed_shard_.emplace(request.id, shard);
  ++cell.routed;
}

util::Status ShardedDriver::restore_record(const cluster::JobRecord& record) {
  if (auto status = sched::check_terminal_record(
          record, static_cast<int>(gpu_shard_.size()));
      !status) {
    return status;
  }
  if (known_id(record.id)) {
    return util::Error{
        util::fmt("restore job {}: id already known", record.id)};
  }
  local_recorder_.import_record(record);
  if (record.rejected) ++rejected_jobs_;
  return util::Status::ok();
}

util::Status ShardedDriver::finish_restore() {
  for (const Cell& cell : cells_) {
    if (auto status = cell.driver->finish_restore(); !status) return status;
  }
  return util::Status::ok();
}

util::Status ShardedDriver::validate() const {
  for (const Cell& cell : cells_) {
    if (auto status = cell.driver->validate(); !status) return status;
  }
  return util::Status::ok();
}

sched::DriverReport ShardedDriver::merged_report() const {
  sched::DriverReport report;
  for (const Cell& cell : cells_) {
    const sched::DriverReport& r = cell.driver->report();
    report.decision_seconds += r.decision_seconds;
    report.decision_count += r.decision_count;
    report.capacity_skips += r.capacity_skips;
    report.decision_latency_us.merge(r.decision_latency_us);
    report.placed_latency_us.merge(r.placed_latency_us);
    report.declined_latency_us.merge(r.declined_latency_us);
    report.advance_seconds += r.advance_seconds;
    report.advance_count += r.advance_count;
    report.advance_latency_us.merge(r.advance_latency_us);
    report.events += r.events;
    report.rejected_jobs += r.rejected_jobs;
  }
  report.rejected_jobs += rejected_jobs_ + duplicate_jobs_;
  std::vector<cluster::JobRecord> records;
  visit_records([&records](const cluster::JobRecord& record) {
    records.push_back(record);
    return true;
  });
  for (cluster::JobRecord& record : records) {
    report.recorder.import_record(std::move(record));
  }
  report.end_time = report.recorder.makespan();
  return report;
}

sched::DriverReport ShardedDriver::run(
    std::vector<jobgraph::JobRequest> jobs) {
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const jobgraph::JobRequest& a,
                      const jobgraph::JobRequest& b) {
                     return a.arrival_time < b.arrival_time;
                   });
  for (const jobgraph::JobRequest& job : jobs) {
    if (submit(job) == sched::SubmitResult::kDuplicate) ++duplicate_jobs_;
  }
  advance_all();
  return merged_report();
}

}  // namespace gts::shard
