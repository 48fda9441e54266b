// The two-stage inter-shard router (DESIGN.md section 19).
//
// Routing reads each cell's ClusterState capacity index (DESIGN.md
// section 21) — free total, largest free machine and socket, machines
// with a free GPU, Eq. 5 fragmentation — all maintained per GPU flip, so
// routing never rescans a cell.
//
// Routing runs two stages before any full scheduler pass happens:
//
//   Filter — rejects shards that *provably* cannot place the job right
//            now: job_can_ever_fit on the cell topology, then the cell
//            state's may_fit — the same O(1) predicate the driver's
//            capacity gate uses, which encodes exactly the capacity rules
//            check::audit_placement enforces. So the Filter never rejects
//            a shard the full scheduler could have placed into — the
//            soundness invariant tests/shard_test.cpp holds over random
//            occupancy for all four policies.
//   Score  — ranks surviving shards 0..100 (packing tier, free capacity,
//            queue pressure, fragmentation; the k8s shim's score idiom).
//            Ties break toward the lowest shard id.
//
// When every shard is filtered, the job falls back to the ever-fitting
// shard with the most free GPUs (it will queue there); the router counts
// these as `exhausted`.
#pragma once

#include <span>

#include "cluster/state.hpp"
#include "jobgraph/jobgraph.hpp"
#include "perf/model.hpp"
#include "topo/topology.hpp"

namespace gts::shard {

/// One routing candidate: the cell's state (whose topology is the
/// cell's), plus its current queue depth (jobs already waiting there).
struct ShardCandidate {
  const cluster::ClusterState* state = nullptr;
  int queue_depth = 0;
};

struct RouteDecision {
  /// Chosen shard, or -1 when no shard can ever fit the job.
  int shard = -1;
  /// Score of the winner (0 when the route fell back).
  int score = 0;
  /// Shards rejected by the Filter stage for this job.
  int filtered = 0;
  /// True when every shard was filtered and the fallback picked the
  /// ever-fitting shard with the most free GPUs (the job will queue).
  bool exhausted = false;
};

/// Filter stage alone: can `candidate` possibly place `request` right now?
/// Necessary conditions only — a true return is NOT a placement guarantee,
/// but a false return is a proof of infeasibility.
bool filter_admits(const jobgraph::JobRequest& request,
                   const ShardCandidate& candidate,
                   const perf::DlWorkloadModel& model);

/// Score stage alone: 0..100 rank of a Filter-surviving candidate.
int score_shard(const jobgraph::JobRequest& request,
                const ShardCandidate& candidate);

/// Full two-stage route over `candidates` (indexed by shard id).
RouteDecision route_job(const jobgraph::JobRequest& request,
                        std::span<const ShardCandidate> candidates,
                        const perf::DlWorkloadModel& model);

}  // namespace gts::shard
