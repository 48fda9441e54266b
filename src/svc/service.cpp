#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "jobgraph/manifest.hpp"
#include "json/json.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "perf/profile.hpp"
#include "shard/sharded_driver.hpp"
#include "util/strings.hpp"

namespace gts::svc {

namespace {

sched::DriverOptions make_driver_options(const ServiceOptions& options) {
  sched::DriverOptions driver_options;
  driver_options.utility_weights = options.weights;
  driver_options.self_audit = options.self_audit;
  return driver_options;
}

std::unique_ptr<sched::DriverApi> make_driver(
    const topo::TopologyGraph& topology, const perf::DlWorkloadModel& model,
    const ServiceOptions& options, sched::Scheduler& scheduler) {
  if (options.config.shard_count > 1) {
    shard::ShardedOptions sharded;
    sharded.shards = options.config.shard_count;
    sharded.policy = options.config.policy;
    sharded.driver = make_driver_options(options);
    return std::make_unique<shard::ShardedDriver>(topology, model,
                                                  std::move(sharded));
  }
  return std::make_unique<sched::Driver>(topology, model, scheduler,
                                         make_driver_options(options));
}

json::Value int_array(std::span<const int> values) {
  json::Array array;
  array.reserve(values.size());
  for (const int value : values) array.push_back(value);
  return json::Value{std::move(array)};
}

/// The `status` reply (and `list --detail` row) of a terminal job.
json::Value terminal_record(const cluster::JobRecord& record) {
  json::Value value;
  value.set("id", record.id);
  value.set("state", record.terminal_state());
  value.set("arrival", record.arrival);
  value.set("num_gpus", record.num_gpus);
  if (record.rejected) return value;
  value.set("start", record.start);
  value.set("end", record.end);
  value.set("gpus", int_array(record.gpus));
  value.set("placement_utility", record.placement_utility);
  value.set("postponements", record.postponements);
  value.set("degradation_events", record.degradation_events);
  value.set("queue_time", record.waiting_time());
  value.set("execution_time", record.execution_time());
  value.set("jct_slowdown", record.jct_slowdown());
  value.set("slo_violated", record.slo_violated());
  return value;
}

}  // namespace

ServiceCore::ServiceCore(const topo::TopologyGraph& topology,
                         const perf::DlWorkloadModel& model,
                         ServiceOptions options)
    : topology_(topology),
      model_(model),
      options_(std::move(options)),
      scheduler_(sched::make_scheduler(options_.config.policy,
                                       options_.weights)),
      driver_(make_driver(topology_, model_, options_, *scheduler_)) {}

int ServiceCore::admission_depth() const noexcept {
  return driver_->queue_depth() + driver_->pending_count();
}

Response ServiceCore::handle(const Request& request) {
  util::SerialGuard guard(serial_);
  obs::SpanGuard span(obs::kSvc, "svc.request");
  span.arg("request_id", static_cast<double>(request.id));
  const auto t0 = std::chrono::steady_clock::now();
  Response response = dispatch(request);
  const double latency_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();
  span.arg("ok", response.ok ? 1.0 : 0.0);
  GTS_METRIC_COUNT("svc.requests", 1);
  if (!response.ok) GTS_METRIC_COUNT("svc.request_errors", 1);
  GTS_METRIC_HISTOGRAM("svc.request_latency_us", latency_us,
                       obs::latency_bounds_us());
  GTS_METRIC_GAUGE_SET("svc.queue_depth",
                       static_cast<double>(admission_depth()));
  GTS_METRIC_WINDOW("svc.request_latency_us", latency_us,
                    obs::latency_bounds_us());
  GTS_METRIC_WINDOW("svc.requests", 1.0, obs::depth_bounds());
  GTS_METRIC_WINDOW("svc.queue_depth",
                    static_cast<double>(admission_depth()),
                    obs::depth_bounds());
  return response;
}

Response ServiceCore::handle_line(std::string_view line) {
  auto request = parse_request(line);
  if (!request) {
    return Response::failure(0, ErrorCode::kParse, request.error().message);
  }
  return handle(*request);
}

Response ServiceCore::dispatch(const Request& request) {
  if (request.version != kProtocolVersion) {
    return Response::failure(
        request.id, ErrorCode::kUnsupportedVersion,
        util::fmt("protocol version {} unsupported; this daemon speaks {}",
                  request.version, kProtocolVersion));
  }
  if (request.verb == "ping") return verb_ping(request);
  if (request.verb == "submit") return verb_submit(request);
  if (request.verb == "status") return verb_status(request);
  if (request.verb == "list") return verb_list(request);
  if (request.verb == "cancel") return verb_cancel(request);
  if (request.verb == "topology") return verb_topology(request);
  if (request.verb == "metrics") return verb_metrics(request);
  if (request.verb == "metrics_prom") return verb_metrics_prom(request);
  if (request.verb == "shards") return verb_shards(request);
  if (request.verb == "dump") return verb_dump(request);
  if (request.verb == "advance") return verb_advance(request);
  if (request.verb == "snapshot") return verb_snapshot(request);
  if (request.verb == "drain") return verb_drain(request);
  if (request.verb == "shutdown") return verb_shutdown(request);
  return Response::failure(request.id, ErrorCode::kUnknownVerb,
                           util::fmt("unknown verb '{}'", request.verb));
}

Response ServiceCore::verb_ping(const Request& request) {
  json::Value result;
  result.set("now", driver_->now());
  result.set("protocol", kProtocolVersion);
  result.set("policy", std::string(scheduler_->name()));
  result.set("shards", driver_->shard_count());
  return Response::success(request.id, std::move(result));
}

Response ServiceCore::submit_one(long long request_id,
                                 jobgraph::JobRequest job) {
  if (admission_depth() >= options_.config.max_queue) {
    GTS_METRIC_COUNT("svc.backpressure", 1);
    GTS_FLIGHT_AT(obs::FlightKind::kBackpressure, job.id,
                  static_cast<double>(admission_depth()),
                  static_cast<double>(options_.config.retry_after_ms),
                  "queue_full", driver_->now());
    return Response::failure(
        request_id, ErrorCode::kBackpressure,
        util::fmt("admission queue full ({} jobs); retry later",
                  options_.config.max_queue),
        options_.config.retry_after_ms);
  }
  // A terminal id is a conflict even while draining (the driver answers
  // draining before it checks duplicates).
  if (const auto record = driver_->job_record(job.id);
      record && record->terminal()) {
    return Response::failure(
        request_id, ErrorCode::kConflict,
        util::fmt("job id {} already submitted", job.id));
  }
  // Wire submissions carry only the manifest; the profile anchors come
  // from the same model-backed profiling the batch paths use, keeping
  // service and prototype placements identical on the same workload.
  perf::fill_profile(job, model_, topology_);
  const sched::SubmitResult outcome = driver_->submit(job);
  switch (outcome) {
    case sched::SubmitResult::kAccepted: {
      if (job.id >= next_auto_id_) next_auto_id_ = job.id + 1;
      GTS_FLIGHT_AT(obs::FlightKind::kAdmission, job.id,
                    static_cast<double>(admission_depth()),
                    static_cast<double>(job.num_gpus), "accepted",
                    driver_->now());
      json::Value result;
      result.set("id", job.id);
      result.set("status", "accepted");
      result.set("queue_depth", admission_depth());
      return Response::success(request_id, std::move(result));
    }
    case sched::SubmitResult::kDuplicate:
      return Response::failure(
          request_id, ErrorCode::kConflict,
          util::fmt("job id {} already submitted", job.id));
    case sched::SubmitResult::kNeverFits:
      return Response::failure(
          request_id, ErrorCode::kBadRequest,
          util::fmt("job {} can never fit this cluster", job.id));
    case sched::SubmitResult::kDraining:
      return Response::failure(request_id, ErrorCode::kDraining,
                               "daemon is draining; submit refused");
  }
  return Response::failure(request_id, ErrorCode::kInternal,
                           "unhandled submit outcome");
}

Response ServiceCore::verb_submit(const Request& request) {
  const json::Value& params = request.params;
  const bool has_job = params.contains("job");
  const bool has_manifest = params.contains("manifest");
  if (has_job == has_manifest) {
    return Response::failure(
        request.id, ErrorCode::kBadRequest,
        "submit takes exactly one of params.job (manifest object) or "
        "params.manifest (manifest file path)");
  }
  if (has_job) {
    json::Value manifest = params.at("job");
    if (!manifest.is_object()) {
      return Response::failure(request.id, ErrorCode::kBadRequest,
                               "params.job must be a manifest object");
    }
    if (!manifest.contains("id")) manifest.set("id", next_auto_id_);
    auto job = jobgraph::from_manifest(manifest);
    if (!job) {
      return Response::failure(request.id, ErrorCode::kBadRequest,
                               job.error().message);
    }
    return submit_one(request.id, std::move(*job));
  }
  const std::string path = params.at("manifest").as_string();
  auto jobs = jobgraph::load_manifest_file(path);
  if (!jobs) {
    return Response::failure(request.id, ErrorCode::kBadRequest,
                             jobs.error().message);
  }
  // Batch submit: per-job outcomes, so one full queue or duplicate id
  // doesn't hide what happened to the rest of the file.
  json::Array results;
  int accepted = 0;
  for (jobgraph::JobRequest& job : *jobs) {
    const int job_id = job.id;
    const Response outcome = submit_one(request.id, std::move(job));
    json::Value entry;
    entry.set("id", job_id);
    if (outcome.ok) {
      entry.set("status", "accepted");
      ++accepted;
    } else {
      entry.set("status", std::string(to_string(outcome.code)));
      entry.set("message", outcome.message);
      if (outcome.retry_after_ms >= 0.0) {
        entry.set("retry_after_ms", outcome.retry_after_ms);
      }
    }
    results.push_back(std::move(entry));
  }
  json::Value result;
  result.set("accepted", accepted);
  result.set("total", results.size());
  result.set("results", std::move(results));
  result.set("queue_depth", admission_depth());
  return Response::success(request.id, std::move(result));
}

Response ServiceCore::verb_status(const Request& request) {
  if (!request.params.at("id").is_number()) {
    return Response::failure(request.id, ErrorCode::kBadRequest,
                             "status requires numeric params.id");
  }
  const int job_id = static_cast<int>(request.params.at("id").as_int());
  const std::optional<cluster::JobRecord> record = driver_->job_record(job_id);
  if (record && record->terminal()) {
    return Response::success(request.id, terminal_record(*record));
  }
  json::Value result;
  result.set("id", job_id);
  bool found = false;
  driver_->visit_running([&](const sched::RunningJobView& view) {
    if (view.request->id != job_id) return true;
    found = true;
    result.set("state", "running");
    result.set("arrival", view.request->arrival_time);
    result.set("start", view.start_time);
    result.set("gpus", int_array(view.gpus));
    // Progress is banked lazily on state changes; report it as of `now`.
    const double live_progress =
        view.progress_iterations +
        view.rate * (driver_->now() - view.last_update);
    result.set("progress_iterations",
               std::min(live_progress,
                        static_cast<double>(view.request->iterations)));
    result.set("iterations", view.request->iterations);
    result.set("placement_utility", view.placement_utility);
    if (record) {
      result.set("postponements", record->postponements);
      result.set("degradation_events", record->degradation_events);
      result.set("queue_time", record->waiting_time());
      result.set("slo_violated", record->slo_violated());
    }
    return false;
  });
  if (found) return Response::success(request.id, std::move(result));
  driver_->visit_waiting([&](const sched::WaitingView& view) {
    if (view.request->id != job_id) return true;
    found = true;
    result.set("state", "queued");
    result.set("arrival", view.request->arrival_time);
    result.set("num_gpus", view.request->num_gpus);
    result.set("waited", driver_->now() - view.request->arrival_time);
    if (record) result.set("postponements", record->postponements);
    return false;
  });
  if (found) return Response::success(request.id, std::move(result));
  for (const jobgraph::JobRequest& pending : driver_->pending_arrivals()) {
    if (pending.id != job_id) continue;
    result.set("state", "pending_arrival");
    result.set("arrival", pending.arrival_time);
    return Response::success(request.id, std::move(result));
  }
  return Response::failure(request.id, ErrorCode::kNotFound,
                           util::fmt("unknown job id {}", job_id));
}

Response ServiceCore::verb_list(const Request& request) {
  const bool detail = request.params.at("detail").as_bool(false);
  json::Array running;
  driver_->visit_running([&](const sched::RunningJobView& view) {
    running.push_back(view.request->id);
    return true;
  });
  json::Array queued;
  driver_->visit_waiting([&](const sched::WaitingView& view) {
    queued.push_back(view.request->id);
    return true;
  });
  json::Array pending;
  for (const jobgraph::JobRequest& job : driver_->pending_arrivals()) {
    pending.push_back(job.id);
  }
  // Terminal jobs, from the one pass over every record the verb makes;
  // each id array is in id order.
  json::Array finished;
  json::Array cancelled;
  json::Array rejected;
  std::vector<std::pair<int, json::Array*>> ended;
  json::Array jobs;
  driver_->visit_records([&](const cluster::JobRecord& record) {
    if (!record.terminal()) return true;
    ended.emplace_back(record.id, record.rejected    ? &rejected
                                  : record.cancelled ? &cancelled
                                                     : &finished);
    if (detail) jobs.push_back(terminal_record(record));
    return true;
  });
  std::sort(ended.begin(), ended.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [id, bucket] : ended) bucket->push_back(id);
  json::Value result;
  result.set("now", driver_->now());
  result.set("draining", driver_->draining());
  result.set("queue_depth", admission_depth());
  result.set("capacity_version", driver_->capacity_version());
  result.set("running", std::move(running));
  result.set("queued", std::move(queued));
  result.set("pending", std::move(pending));
  result.set("finished", std::move(finished));
  result.set("cancelled", std::move(cancelled));
  result.set("rejected", std::move(rejected));
  if (detail) {
    // Per-job lifecycle table (gts_top's job pane): one row per known
    // job with state, timing, and SLO accounting; the terminal rows are
    // already in `jobs`.
    driver_->visit_running([&](const sched::RunningJobView& view) {
      json::Value row;
      row.set("id", view.request->id);
      row.set("state", "running");
      row.set("arrival", view.request->arrival_time);
      row.set("start", view.start_time);
      row.set("num_gpus", view.request->num_gpus);
      row.set("placement_utility", view.placement_utility);
      const double live_progress =
          view.progress_iterations +
          view.rate * (driver_->now() - view.last_update);
      row.set("progress",
              view.request->iterations > 0
                  ? std::min(live_progress /
                                 static_cast<double>(view.request->iterations),
                             1.0)
                  : 0.0);
      if (const auto record = driver_->job_record(view.request->id)) {
        row.set("postponements", record->postponements);
        row.set("queue_time", record->waiting_time());
        row.set("slo_violated", record->slo_violated());
      }
      jobs.push_back(std::move(row));
      return true;
    });
    driver_->visit_waiting([&](const sched::WaitingView& view) {
      json::Value row;
      row.set("id", view.request->id);
      row.set("state", "queued");
      row.set("arrival", view.request->arrival_time);
      row.set("num_gpus", view.request->num_gpus);
      row.set("waited", driver_->now() - view.request->arrival_time);
      if (const auto record = driver_->job_record(view.request->id)) {
        row.set("postponements", record->postponements);
      }
      jobs.push_back(std::move(row));
      return true;
    });
    for (const jobgraph::JobRequest& job : driver_->pending_arrivals()) {
      json::Value row;
      row.set("id", job.id);
      row.set("state", "pending_arrival");
      row.set("arrival", job.arrival_time);
      row.set("num_gpus", job.num_gpus);
      jobs.push_back(std::move(row));
    }
    // Numeric id order across all states: with datacenter-scale clusters
    // the table mixes 1-digit and 5-digit ids, and the per-state section
    // order (running, queued, pending, terminal) read as unsorted.
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const json::Value& a, const json::Value& b) {
                       return a.at("id").as_int() < b.at("id").as_int();
                     });
    result.set("jobs", std::move(jobs));
  }
  return Response::success(request.id, std::move(result));
}

Response ServiceCore::verb_cancel(const Request& request) {
  if (!request.params.at("id").is_number()) {
    return Response::failure(request.id, ErrorCode::kBadRequest,
                             "cancel requires numeric params.id");
  }
  const int job_id = static_cast<int>(request.params.at("id").as_int());
  if (driver_->cancel(job_id)) {
    json::Value result;
    result.set("id", job_id);
    result.set("cancelled", true);
    result.set("now", driver_->now());
    return Response::success(request.id, std::move(result));
  }
  if (const auto record = driver_->job_record(job_id);
      record && record->terminal()) {
    return Response::failure(request.id, ErrorCode::kConflict,
                             util::fmt("job {} already {}", job_id,
                                       record->terminal_state()));
  }
  return Response::failure(request.id, ErrorCode::kNotFound,
                           util::fmt("unknown job id {}", job_id));
}

Response ServiceCore::verb_topology(const Request& request) {
  json::Value result;
  result.set("machines", topology_.machine_count());
  result.set("gpus", topology_.gpu_count());
  result.set("free_gpus", driver_->free_gpu_count());
  result.set("fragmentation", driver_->fragmentation());
  result.set("allocation_version", driver_->allocation_version());
  result.set("shards", driver_->shard_count());
  return Response::success(request.id, std::move(result));
}

Response ServiceCore::verb_metrics(const Request& request) {
  const sched::DriverCounters counters = driver_->counters();
  // Lifecycle / SLO summary over every job the recorder has seen
  // (DESIGN.md section 18.4).
  const sched::LifecycleSummary lifecycle = driver_->lifecycle();
  json::Value result;
  result.set("now", driver_->now());
  result.set("queue_depth", admission_depth());
  result.set("running", driver_->running_job_count());
  result.set("terminal", lifecycle.terminal);
  result.set("decisions", counters.decision_count);
  result.set("decision_seconds", counters.decision_seconds);
  result.set("events", counters.events);
  result.set("rejected_jobs", counters.rejected_jobs);
  result.set("capacity_version", driver_->capacity_version());
  result.set("draining", driver_->draining());
  result.set("postponements", lifecycle.postponements);
  result.set("degradations", lifecycle.degradations);
  result.set("slo_violations", lifecycle.slo_violations);
  result.set("mean_jct_slowdown", lifecycle.mean_jct_slowdown);
  result.set("mean_waiting_time", lifecycle.mean_waiting_time);
  if (driver_->shard_count() > 1) {
    const sched::RouterTelemetry router = driver_->router();
    json::Value routing;
    routing.set("shards", driver_->shard_count());
    routing.set("routed", router.routed);
    routing.set("filtered", router.filtered);
    routing.set("exhausted", router.exhausted);
    result.set("router", std::move(routing));
  }
  if (obs::metrics_enabled()) {
    result.set("registry", obs::Registry::instance().snapshot_json());
  }
  if (obs::windows_enabled()) {
    result.set("windows",
               obs::WindowRegistry::instance().snapshot_json().at("windows"));
  }
  return Response::success(request.id, std::move(result));
}

Response ServiceCore::verb_metrics_prom(const Request& request) {
  json::Value result;
  result.set("content_type", "text/plain; version=0.0.4");
  result.set("text", prometheus_text_locked());
  return Response::success(request.id, std::move(result));
}

Response ServiceCore::verb_shards(const Request& request) {
  // Per-cell occupancy plus router telemetry (one summary row per shard;
  // gts_top renders this instead of a per-machine listing at datacenter
  // scale). Works on an unsharded daemon too: one cell, no router
  // traffic.
  const sched::RouterTelemetry router = driver_->router();
  json::Value routing;
  routing.set("routed", router.routed);
  routing.set("filtered", router.filtered);
  routing.set("exhausted", router.exhausted);
  routing.set("route_latency_us", router.route_latency_us.to_json());
  json::Array cells;
  for (const sched::ShardInfo& info : driver_->shard_infos()) {
    json::Value cell;
    cell.set("shard", info.shard);
    cell.set("machines", info.machines);
    cell.set("gpus", info.gpus);
    cell.set("free_gpus", info.free_gpus);
    cell.set("running", info.running);
    cell.set("queued", info.queued);
    cell.set("fragmentation", info.fragmentation);
    cell.set("decisions", info.decisions);
    cell.set("placements", info.placements);
    cell.set("routed", info.routed);
    cells.push_back(std::move(cell));
  }
  json::Value result;
  result.set("now", driver_->now());
  result.set("shards", driver_->shard_count());
  result.set("router", std::move(routing));
  result.set("cells", std::move(cells));
  return Response::success(request.id, std::move(result));
}

Response ServiceCore::verb_dump(const Request& request) {
  const obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  json::Value result;
  result.set("enabled", obs::flight_enabled());
  result.set("capacity", recorder.capacity());
  result.set("recorded", static_cast<double>(recorder.recorded()));
  const std::string path = request.params.at("path").as_string();
  if (!path.empty()) {
    if (auto status = recorder.dump_to_file(path); !status) {
      return Response::failure(request.id, ErrorCode::kInternal,
                               status.error().message);
    }
    result.set("path", path);
  } else {
    result.set("text", recorder.dump_jsonl());
  }
  return Response::success(request.id, std::move(result));
}

std::string ServiceCore::prometheus_text() const {
  util::SerialGuard guard(serial_);
  return prometheus_text_locked();
}

std::string ServiceCore::prometheus_text_locked() const {
  std::string text = obs::prometheus_text();
  // Live gauges computed at scrape time: present (and fresh) even when
  // the cumulative metrics pillar is disabled.
  obs::append_prometheus_gauge(text, "svc.up", "daemon liveness flag", 1.0);
  obs::append_prometheus_gauge(text, "svc.sim_now_seconds",
                               "simulated clock", driver_->now());
  obs::append_prometheus_gauge(
      text, "svc.queue_depth_live",
      "jobs waiting or pending arrival (admission depth)",
      static_cast<double>(admission_depth()));
  obs::append_prometheus_gauge(
      text, "svc.running_jobs_live", "jobs currently placed",
      static_cast<double>(driver_->running_job_count()));
  obs::append_prometheus_gauge(text, "svc.draining",
                               "1 while the daemon refuses new submits",
                               driver_->draining() ? 1.0 : 0.0);
  obs::append_prometheus_gauge(
      text, "cluster.free_gpus_live", "unallocated GPUs",
      static_cast<double>(driver_->free_gpu_count()));
  obs::append_prometheus_gauge(text, "cluster.fragmentation_live",
                               "cluster fragmentation in [0,1]",
                               driver_->fragmentation());
  obs::append_prometheus_gauge(
      text, "sched.decisions_live", "placement attempts so far",
      static_cast<double>(driver_->counters().decision_count));
  if (driver_->shard_count() > 1) {
    const sched::RouterTelemetry router = driver_->router();
    obs::append_prometheus_gauge(text, "shard.count",
                                 "cells the cluster is partitioned into",
                                 static_cast<double>(driver_->shard_count()));
    obs::append_prometheus_gauge(text, "shard.routed_live",
                                 "jobs routed to a cell so far",
                                 static_cast<double>(router.routed));
    obs::append_prometheus_gauge(
        text, "shard.filtered_live",
        "shard candidates rejected by the router's Filter stage",
        static_cast<double>(router.filtered));
    obs::append_prometheus_gauge(
        text, "shard.exhausted_live",
        "routes that fell back after every shard was filtered",
        static_cast<double>(router.exhausted));
    for (const sched::ShardInfo& info : driver_->shard_infos()) {
      const std::string labels =
          "shard=\"" + std::to_string(info.shard) + "\"";
      obs::append_prometheus_gauge_labeled(
          text, "shard.free_gpus_live", "unallocated GPUs per cell", labels,
          static_cast<double>(info.free_gpus));
      obs::append_prometheus_gauge_labeled(
          text, "shard.running_jobs_live", "jobs placed per cell", labels,
          static_cast<double>(info.running));
      obs::append_prometheus_gauge_labeled(
          text, "shard.queue_depth_live", "jobs waiting per cell", labels,
          static_cast<double>(info.queued));
      obs::append_prometheus_gauge_labeled(
          text, "shard.fragmentation_live",
          "per-cell fragmentation in [0,1]", labels, info.fragmentation);
      obs::append_prometheus_gauge_labeled(
          text, "shard.routed_jobs_live", "jobs ever routed to the cell",
          labels, static_cast<double>(info.routed));
    }
  }
  return text;
}

Response ServiceCore::verb_advance(const Request& request) {
  const json::Value& params = request.params;
  const bool has_to = params.contains("to");
  const bool run_all = params.at("all").as_bool(false);
  if (has_to == run_all) {
    return Response::failure(
        request.id, ErrorCode::kBadRequest,
        "advance takes exactly one of params.to (seconds) or params.all");
  }
  if (has_to) {
    if (!params.at("to").is_number()) {
      return Response::failure(request.id, ErrorCode::kBadRequest,
                               "params.to must be a number");
    }
    const double to = params.at("to").as_number();
    if (to < driver_->now() - 1e-9) {
      return Response::failure(
          request.id, ErrorCode::kBadRequest,
          util::fmt("cannot advance into the past (now={})", driver_->now()));
    }
    driver_->advance_to(to);
  } else {
    driver_->advance_all();
  }
  json::Value result;
  result.set("now", driver_->now());
  result.set("idle", driver_->idle());
  return Response::success(request.id, std::move(result));
}

Response ServiceCore::verb_snapshot(const Request& request) {
  // Bank running-job progress and re-arm the completion event before
  // serializing: the origin process and one restored from this snapshot
  // then continue with bitwise-identical arithmetic (a snapshot request
  // is part of the decision-determining request sequence).
  driver_->checkpoint_progress();
  const std::string path = request.params.at("path").as_string();
  GTS_FLIGHT_AT(obs::FlightKind::kSnapshot, -1,
                static_cast<double>(driver_->running_job_count()),
                static_cast<double>(driver_->queue_depth()),
                path.empty() ? "inline" : "file", driver_->now());
  if (path.empty()) {
    json::Value result;
    result.set("snapshot", snapshot_json_locked());
    return Response::success(request.id, std::move(result));
  }
  if (auto status = save_snapshot_locked(path); !status) {
    return Response::failure(request.id, ErrorCode::kInternal,
                             status.error().message);
  }
  json::Value result;
  result.set("path", path);
  result.set("now", driver_->now());
  result.set("running", driver_->running_job_count());
  result.set("queued", driver_->queue_depth());
  return Response::success(request.id, std::move(result));
}

Response ServiceCore::verb_drain(const Request& request) {
  driver_->drain();
  const bool wait = request.params.at("wait").as_bool(true);
  if (wait) driver_->advance_all();
  json::Value result;
  result.set("draining", true);
  result.set("now", driver_->now());
  result.set("idle", driver_->idle());
  return Response::success(request.id, std::move(result));
}

Response ServiceCore::verb_shutdown(const Request& request) {
  driver_->drain();
  shutdown_requested_ = true;
  json::Value result;
  result.set("shutdown", true);
  result.set("now", driver_->now());
  return Response::success(request.id, std::move(result));
}

}  // namespace gts::svc
