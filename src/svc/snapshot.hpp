// Crash-recovery snapshot format for the scheduler service
// (DESIGN.md section 14.3).
//
// A snapshot is a versioned JSON document capturing everything the
// daemon's decisions depend on:
//
//   {"schema_version": 2, "kind": "svc_snapshot",
//    "now": <simulated seconds>, "capacity_version": <n>,
//    "draining": <bool>, "next_auto_id": <n>,
//    "running":  [{"manifest": {...}, "gpus": [...], "start_time": t,
//                  "progress_iterations": x, "placement_utility": u,
//                  "noise_factor": f}, ...],
//    "waiting":  [{"manifest": {...}, "attempted_version": v|-1}, ...],
//    "pending":  [{"manifest": {...}}, ...],
//    "history":  [{"id": n, "state": "finished"|"cancelled"|"rejected",
//                  "nn", "batch", "num_gpus", "min_utility", "arrival",
//                  "start", "end", "gpus", "placement_utility", "p2p",
//                  "best_solo_time", "postponements",
//                  "degradation_events"}, ...]}
//
// History is the driver's terminal job records in id order (job history
// has one owner: the driver's records); restore imports them through
// DriverApi::restore_record. Schema 1 carried status-shaped history the
// driver could not rebuild its records from and is refused.
//
// Jobs are stored as their Section 5.1 manifests; profiles are re-derived
// from the workload model on restore (they are a pure function of the
// manifest, the model, and the topology). Restore replays every running
// placement through check::audit_placement and the rebuilt cluster state
// through check::validate, so a stale or hand-edited snapshot fails
// loudly instead of corrupting the daemon.
#pragma once

#include "json/json.hpp"
#include "util/expected.hpp"

namespace gts::svc {

inline constexpr int kSnapshotSchemaVersion = 2;
inline constexpr std::string_view kSnapshotKind = "svc_snapshot";

/// Structural validation of a snapshot document (schema version, kind,
/// required fields and their types). restore_json performs it implicitly;
/// tools/validate_trace.py is the out-of-process twin.
util::Status validate_snapshot_json(const json::Value& document);

}  // namespace gts::svc
