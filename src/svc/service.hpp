// Scheduler service core: the verb dispatcher behind the gts_schedd
// daemon (DESIGN.md section 14).
//
// The core is transport-agnostic and single-threaded: the socket server
// feeds it one decoded Request at a time and writes back the Response.
// Simulated time is virtual and advances only through the `advance` and
// `drain` verbs, so a daemon's decision sequence is a pure function of
// the request sequence — which is what makes the snapshot/restore
// continuation byte-identical to an uninterrupted run (tests/svc_test.cpp
// and tools/service_smoke.sh hold it to that).
//
// Verbs: ping, submit (inline manifest object or manifest file), status,
// list, cancel, topology, metrics, metrics_prom, shards, dump, advance,
// snapshot, drain, shutdown.
//
// The core runs against the sched::DriverApi interface: with
// config.shard_count == 1 it owns a classic single sched::Driver; with
// shard_count > 1 it owns a shard::ShardedDriver federation (DESIGN.md
// section 19) — every verb, the snapshot document, and the Prometheus
// gauges work identically on both.
// Admission is bounded: when queued + pending-arrival jobs reach
// max_queue, submit fails with a `backpressure` error carrying a
// retry_after_ms hint.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "config/system_config.hpp"
#include "perf/model.hpp"
#include "sched/driver.hpp"
#include "sched/scheduler.hpp"
#include "svc/protocol.hpp"
#include "topo/topology.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace gts::svc {

struct ServiceOptions {
  /// Admission/backpressure knobs and the placement policy ([service]
  /// section of sys-config.ini; every field has a gts_schedd flag).
  config::ServiceConfig config;
  sched::UtilityWeights weights{};
  /// Driver self-audit (check subsystem) after every simulated event.
  bool self_audit = false;
};

class ServiceCore {
 public:
  ServiceCore(const topo::TopologyGraph& topology,
              const perf::DlWorkloadModel& model, ServiceOptions options = {});

  /// Dispatches one request (version check, then the verb table).
  /// Instrumented: kSvc span, svc.requests / svc.request_latency_us /
  /// svc.queue_depth metrics.
  Response handle(const Request& request);

  /// Dispatches a batch of already-parsed requests in order under one
  /// serial entry (one SerialGuard, one svc.batch span). Response i
  /// answers request i; the sequence of responses is identical to N
  /// individual handle() calls — batching only amortizes the entry cost
  /// and lets the server parse the next batch off this thread.
  std::vector<Response> handle_batch(const std::vector<Request>& requests);

  /// Parses one wire line and dispatches it. Undecodable lines yield a
  /// `parse` failure addressed to id 0; the caller should close the
  /// session afterwards (framing is unrecoverable).
  Response handle_line(std::string_view line);

  /// Set by the `shutdown` verb; the server exits its loop after
  /// flushing pending replies.
  bool shutdown_requested() const noexcept {
    util::SerialGuard guard(serial_);
    return shutdown_requested_;
  }

  const ServiceOptions& options() const noexcept { return options_; }
  sched::DriverApi& driver() noexcept { return *driver_; }
  const sched::DriverApi& driver() const noexcept { return *driver_; }

  /// Jobs counted against max_queue: waiting + pending arrivals.
  int admission_depth() const noexcept;

  /// Prometheus text-format exposition (obs/prom.hpp) plus live service
  /// gauges (queue depth, running jobs, fragmentation, free GPUs) that
  /// stay meaningful even when the metrics pillar is off. Served by the
  /// `metrics_prom` verb and the Server's --prom-port HTTP listener.
  std::string prometheus_text() const;

  // --- snapshot/restore (svc/snapshot.cpp) ---------------------------------
  /// The versioned crash-recovery document (schema_version 2, kind
  /// "svc_snapshot"): simulated clock, capacity version, every running /
  /// waiting / pending-arrival job as its manifest plus execution state,
  /// the driver's terminal job records, and the draining flag.
  json::Value snapshot_json() const;
  /// Rebuilds the core from a snapshot document. Requires a freshly
  /// constructed core (no traffic yet); every running placement is
  /// replayed through check::audit_placement and the restored cluster
  /// state through check::validate before the core accepts traffic.
  util::Status restore_json(const json::Value& document);
  util::Status save_snapshot(const std::string& path) const;
  util::Status load_snapshot(const std::string& path);

 private:
  /// Body of handle(): per-request span + metrics + dispatch, callable
  /// from handle_batch without re-entering the serial capability.
  Response handle_one(const Request& request) GTS_REQUIRES(serial_);
  Response dispatch(const Request& request) GTS_REQUIRES(serial_);
  Response verb_ping(const Request& request) GTS_REQUIRES(serial_);
  Response verb_submit(const Request& request) GTS_REQUIRES(serial_);
  Response verb_status(const Request& request) GTS_REQUIRES(serial_);
  Response verb_list(const Request& request) GTS_REQUIRES(serial_);
  Response verb_cancel(const Request& request) GTS_REQUIRES(serial_);
  Response verb_topology(const Request& request) GTS_REQUIRES(serial_);
  Response verb_metrics(const Request& request) GTS_REQUIRES(serial_);
  Response verb_metrics_prom(const Request& request) GTS_REQUIRES(serial_);
  Response verb_shards(const Request& request) GTS_REQUIRES(serial_);
  Response verb_dump(const Request& request) GTS_REQUIRES(serial_);
  Response verb_advance(const Request& request) GTS_REQUIRES(serial_);
  Response verb_snapshot(const Request& request) GTS_REQUIRES(serial_);
  Response verb_drain(const Request& request) GTS_REQUIRES(serial_);
  Response verb_shutdown(const Request& request) GTS_REQUIRES(serial_);

  /// Admits one parsed job; shared by inline and manifest-file submit.
  Response submit_one(long long request_id, jobgraph::JobRequest job)
      GTS_REQUIRES(serial_);

  std::string prometheus_text_locked() const GTS_REQUIRES(serial_);

  /// In-context bodies of the public snapshot entry points, callable from
  /// verb handlers without re-entering the serial capability.
  json::Value snapshot_json_locked() const GTS_REQUIRES(serial_);
  util::Status restore_json_locked(const json::Value& document)
      GTS_REQUIRES(serial_);
  util::Status save_snapshot_locked(const std::string& path) const
      GTS_REQUIRES(serial_);

  const topo::TopologyGraph& topology_;
  const perf::DlWorkloadModel& model_;
  ServiceOptions options_;
  /// Only the unsharded driver borrows this; a ShardedDriver builds its
  /// own per-cell schedulers. Always constructed so verbs can report the
  /// policy name uniformly.
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::unique_ptr<sched::DriverApi> driver_;
  /// Single-thread confinement of the session/queue state below: every
  /// public entry point takes a SerialGuard, so the analysis proves no
  /// code path reaches this state except through them (DESIGN.md
  /// section 16.2). The core stays single-threaded by design; this makes
  /// the contract compile-checked instead of comment-enforced.
  mutable util::SerialCapability serial_;
  int next_auto_id_ GTS_GUARDED_BY(serial_) = 1;
  bool shutdown_requested_ GTS_GUARDED_BY(serial_) = false;
};

}  // namespace gts::svc
