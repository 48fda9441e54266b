#include "svc/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "jobgraph/manifest.hpp"
#include "perf/profile.hpp"
#include "svc/service.hpp"
#include "util/strings.hpp"

namespace gts::svc {

namespace {

/// The waiting-queue "never attempted" sentinel (~0ULL) does not survive a
/// double round-trip; encode it as -1.
json::Value encode_attempted_version(std::uint64_t version) {
  if (version == ~0ULL) return json::Value{-1};
  return json::Value{static_cast<double>(version)};
}

std::uint64_t decode_attempted_version(const json::Value& value) {
  const double raw = value.as_number(-1.0);
  if (raw < 0.0) return ~0ULL;
  return static_cast<std::uint64_t>(raw);
}

util::Status require_array(const json::Value& document, const char* key) {
  if (!document.at(key).is_array()) {
    return util::Error{util::fmt("snapshot: missing array '{}'", key)};
  }
  return util::Status::ok();
}

/// A JSON number holding an integer in int range.
bool is_int(const json::Value& value) {
  if (!value.is_number()) return false;
  const double n = value.as_number();
  return n == std::floor(n) && n >= std::numeric_limits<int>::min() &&
         n <= std::numeric_limits<int>::max();
}

/// One history entry: the terminal state plus every JobRecord field, so a
/// restore rebuilds the record exactly.
json::Value history_entry(const cluster::JobRecord& record) {
  json::Value entry;
  entry.set("id", record.id);
  entry.set("state", record.terminal_state());
  entry.set("nn", std::string(jobgraph::to_string(record.nn)));
  entry.set("batch", std::string(jobgraph::to_string(record.batch)));
  entry.set("num_gpus", record.num_gpus);
  entry.set("min_utility", record.min_utility);
  entry.set("arrival", record.arrival);
  entry.set("start", record.start);
  entry.set("end", record.end);
  json::Array gpus;
  for (const int gpu : record.gpus) gpus.push_back(gpu);
  entry.set("gpus", std::move(gpus));
  entry.set("placement_utility", record.placement_utility);
  entry.set("p2p", record.p2p);
  entry.set("best_solo_time", record.best_solo_time);
  entry.set("postponements", record.postponements);
  entry.set("degradation_events", record.degradation_events);
  return entry;
}

/// The inverse of history_entry, checking every field's type. Value
/// checks (finite times, GPU range, a known id) are the driver's
/// restore_record seam.
util::Expected<cluster::JobRecord> parse_history_entry(
    const json::Value& entry) {
  const auto fail = [](const std::string& what) {
    return util::Error{"snapshot: history entry " + what};
  };
  for (const char* key :
       {"id", "num_gpus", "postponements", "degradation_events"}) {
    if (!is_int(entry.at(key))) {
      return fail(util::fmt("without integer '{}'", key));
    }
  }
  for (const char* key : {"min_utility", "arrival", "start", "end",
                          "placement_utility", "best_solo_time"}) {
    if (!entry.at(key).is_number()) {
      return fail(util::fmt("without numeric '{}'", key));
    }
  }
  if (!entry.at("p2p").is_bool()) return fail("without boolean 'p2p'");
  const std::string& state = entry.at("state").as_string();
  if (state != "finished" && state != "cancelled" && state != "rejected") {
    return fail(util::fmt("with unknown state '{}'", state));
  }
  const auto nn = jobgraph::neural_net_from_string(entry.at("nn").as_string());
  const auto batch =
      jobgraph::batch_class_from_string(entry.at("batch").as_string());
  if (!nn || !batch) return fail("with unknown nn or batch");
  if (!entry.at("gpus").is_array()) return fail("without gpus array");
  cluster::JobRecord record;
  for (const json::Value& gpu : entry.at("gpus").as_array()) {
    if (!is_int(gpu)) return fail("with a non-integer GPU id");
    record.gpus.push_back(static_cast<int>(gpu.as_int()));
  }
  record.id = static_cast<int>(entry.at("id").as_int());
  record.nn = *nn;
  record.batch = *batch;
  record.num_gpus = static_cast<int>(entry.at("num_gpus").as_int());
  record.min_utility = entry.at("min_utility").as_number();
  record.arrival = entry.at("arrival").as_number();
  record.start = entry.at("start").as_number();
  record.end = entry.at("end").as_number();
  record.cancelled = state == "cancelled";
  record.rejected = state == "rejected";
  record.placement_utility = entry.at("placement_utility").as_number();
  record.p2p = entry.at("p2p").as_bool();
  record.best_solo_time = entry.at("best_solo_time").as_number();
  record.postponements = static_cast<int>(entry.at("postponements").as_int());
  record.degradation_events =
      static_cast<int>(entry.at("degradation_events").as_int());
  return record;
}

/// Structural validation of a snapshot document; on success, its history
/// entries as records, so a restore parses them once.
util::Expected<std::vector<cluster::JobRecord>> parse_snapshot(
    const json::Value& document) {
  if (!document.is_object()) {
    return util::Error{"snapshot: document is not an object"};
  }
  if (document.at("schema_version").as_int(-1) != kSnapshotSchemaVersion) {
    return util::Error{
        util::fmt("snapshot: schema_version must be {}",
                  kSnapshotSchemaVersion)};
  }
  if (document.at("kind").as_string() != kSnapshotKind) {
    return util::Error{"snapshot: kind must be 'svc_snapshot'"};
  }
  if (!document.at("now").is_number() || document.at("now").as_number() < 0.0) {
    return util::Error{"snapshot: missing non-negative 'now'"};
  }
  if (!document.at("capacity_version").is_number()) {
    return util::Error{"snapshot: missing numeric 'capacity_version'"};
  }
  for (const char* key : {"running", "waiting", "pending", "history"}) {
    if (auto status = require_array(document, key); !status) {
      return status.error();
    }
  }
  for (const json::Value& entry : document.at("running").as_array()) {
    if (!entry.at("manifest").is_object()) {
      return util::Error{"snapshot: running entry without manifest object"};
    }
    if (!entry.at("gpus").is_array() || entry.at("gpus").as_array().empty()) {
      return util::Error{"snapshot: running entry without gpus"};
    }
    if (!entry.at("start_time").is_number() ||
        !entry.at("progress_iterations").is_number()) {
      return util::Error{
          "snapshot: running entry without start_time/progress_iterations"};
    }
  }
  for (const char* key : {"waiting", "pending"}) {
    for (const json::Value& entry : document.at(key).as_array()) {
      if (!entry.at("manifest").is_object()) {
        return util::Error{
            util::fmt("snapshot: {} entry without manifest object", key)};
      }
    }
  }
  std::vector<cluster::JobRecord> history;
  for (const json::Value& entry : document.at("history").as_array()) {
    auto record = parse_history_entry(entry);
    if (!record) return record.error();
    history.push_back(std::move(*record));
  }
  return history;
}

}  // namespace

util::Status validate_snapshot_json(const json::Value& document) {
  if (auto history = parse_snapshot(document); !history) {
    return history.error();
  }
  return util::Status::ok();
}

json::Value ServiceCore::snapshot_json() const {
  util::SerialGuard guard(serial_);
  return snapshot_json_locked();
}

json::Value ServiceCore::snapshot_json_locked() const {
  json::Value document;
  document.set("schema_version", kSnapshotSchemaVersion);
  document.set("kind", std::string(kSnapshotKind));
  document.set("now", driver_->now());
  document.set("capacity_version", driver_->capacity_version());
  document.set("draining", driver_->draining());
  document.set("next_auto_id", next_auto_id_);

  json::Array running;
  driver_->visit_running([&](const sched::RunningJobView& view) {
    json::Value entry;
    entry.set("manifest", jobgraph::to_manifest(*view.request));
    json::Array gpus;
    for (const int gpu : view.gpus) gpus.push_back(gpu);
    entry.set("gpus", std::move(gpus));
    entry.set("start_time", view.start_time);
    // Live progress at the snapshot clock: progress is banked lazily (at
    // state changes), so the stored value must include the un-banked run
    // since last_update or the restored job would finish late. The
    // `snapshot` verb banks first (checkpoint_progress), making this the
    // identity and the restored arithmetic bitwise-equal.
    entry.set("progress_iterations",
              std::min(view.progress_iterations +
                           view.rate * (driver_->now() - view.last_update),
                       static_cast<double>(view.request->iterations)));
    entry.set("placement_utility", view.placement_utility);
    entry.set("noise_factor", view.noise_factor);
    if (const auto record = driver_->job_record(view.request->id)) {
      entry.set("postponements", record->postponements);
    }
    running.push_back(std::move(entry));
    return true;
  });
  document.set("running", std::move(running));

  json::Array waiting;
  const bool sharded = driver_->shard_count() > 1;
  driver_->visit_waiting([&](const sched::WaitingView& view) {
    json::Value item;
    item.set("manifest", jobgraph::to_manifest(*view.request));
    item.set("attempted_version",
             encode_attempted_version(view.attempted_version));
    if (const auto record = driver_->job_record(view.request->id)) {
      item.set("postponements", record->postponements);
    }
    // Only sharded daemons persist the owning cell: the field keeps
    // unsharded snapshots byte-identical to the pre-shard format.
    if (sharded) item.set("shard", view.shard);
    waiting.push_back(std::move(item));
    return true;
  });
  document.set("waiting", std::move(waiting));

  json::Array pending;
  for (const jobgraph::JobRequest& job : driver_->pending_arrivals()) {
    json::Value item;
    item.set("manifest", jobgraph::to_manifest(job));
    pending.push_back(std::move(item));
  }
  document.set("pending", std::move(pending));

  // Terminal jobs in id order: the driver's records are the only job
  // history.
  json::Array history;
  driver_->visit_records([&history](const cluster::JobRecord& record) {
    if (record.terminal()) history.push_back(history_entry(record));
    return true;
  });
  std::sort(history.begin(), history.end(),
            [](const json::Value& a, const json::Value& b) {
              return a.at("id").as_int() < b.at("id").as_int();
            });
  document.set("history", std::move(history));
  return document;
}

util::Status ServiceCore::restore_json(const json::Value& document) {
  util::SerialGuard guard(serial_);
  return restore_json_locked(document);
}

util::Status ServiceCore::restore_json_locked(const json::Value& document) {
  auto history = parse_snapshot(document);
  if (!history) return history.error();

  const double now = document.at("now").as_number();
  const auto capacity_version =
      static_cast<std::uint64_t>(document.at("capacity_version").as_number());
  if (auto status = driver_->begin_restore(now, capacity_version); !status) {
    return status;
  }
  for (const json::Value& entry : document.at("running").as_array()) {
    auto job = jobgraph::from_manifest(entry.at("manifest"));
    if (!job) return job.error().with_context("snapshot running job");
    perf::fill_profile(*job, model_, topology_);
    std::vector<int> gpus;
    for (const json::Value& gpu : entry.at("gpus").as_array()) {
      gpus.push_back(static_cast<int>(gpu.as_int()));
    }
    if (auto status = driver_->restore_running(
            *job, gpus, entry.at("start_time").as_number(),
            entry.at("progress_iterations").as_number(),
            entry.at("placement_utility").as_number(),
            entry.at("noise_factor").as_number(1.0),
            static_cast<int>(entry.at("postponements").as_int(0)));
        !status) {
      return status;
    }
  }
  for (const json::Value& entry : document.at("waiting").as_array()) {
    auto job = jobgraph::from_manifest(entry.at("manifest"));
    if (!job) return job.error().with_context("snapshot waiting job");
    perf::fill_profile(*job, model_, topology_);
    driver_->restore_waiting(
        *job, decode_attempted_version(entry.at("attempted_version")),
        static_cast<int>(entry.at("postponements").as_int(0)),
        static_cast<int>(entry.at("shard").as_int(-1)));
  }
  for (const json::Value& entry : document.at("pending").as_array()) {
    auto job = jobgraph::from_manifest(entry.at("manifest"));
    if (!job) return job.error().with_context("snapshot pending job");
    perf::fill_profile(*job, model_, topology_);
    if (driver_->submit(*job) != sched::SubmitResult::kAccepted) {
      return util::Error{util::fmt(
          "snapshot pending job {}: arrival could not be re-scheduled",
          job->id)};
    }
  }
  // After the live sections, so the driver refuses a history id that is
  // also running, waiting or pending.
  for (const cluster::JobRecord& record : *history) {
    if (auto status = driver_->restore_record(record); !status) {
      return status;
    }
  }
  if (auto status = driver_->finish_restore(); !status) return status;

  next_auto_id_ = static_cast<int>(document.at("next_auto_id").as_int(1));
  if (document.at("draining").as_bool(false)) driver_->drain();
  return util::Status::ok();
}

util::Status ServiceCore::save_snapshot(const std::string& path) const {
  util::SerialGuard guard(serial_);
  return save_snapshot_locked(path);
}

util::Status ServiceCore::save_snapshot_locked(const std::string& path) const {
  return json::write_file(snapshot_json_locked(), path, {.indent = 2});
}

util::Status ServiceCore::load_snapshot(const std::string& path) {
  util::SerialGuard guard(serial_);
  auto document = json::parse_file(path);
  if (!document) return document.error().with_context(path);
  if (auto status = restore_json_locked(*document); !status) {
    return status.error().with_context(path);
  }
  return util::Status::ok();
}

}  // namespace gts::svc
