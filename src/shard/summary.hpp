// Per-cell routing summaries and the two-stage inter-shard router
// (DESIGN.md section 19).
//
// A CellSummary is the router's per-socket view of one cell: a max-tier
// histogram of free GPUs per socket and the Eq. 5 fragmentation estimate.
// It is maintained incrementally — O(GPUs of the job) per
// placement/completion event via ClusterState's allocation listener — so
// routing never rescans a cell. Machine-level capacity (free total,
// largest free machine, machines with a free GPU) comes from the cell
// state's own capacity index (ClusterState, DESIGN.md section 21).
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
#include <vector>

#include "cluster/state.hpp"
#include "jobgraph/jobgraph.hpp"
#include "perf/model.hpp"
#include "topo/topology.hpp"

namespace gts::shard {

class CellSummary {
 public:
  /// Builds the all-free summary of `cell` (the cell's own sub-topology;
  /// GPU ids below are cell-local).
  explicit CellSummary(const topo::TopologyGraph& cell);

  /// Allocation-listener target: `gpus` (cell-local) were just allocated
  /// or freed as one job-sized event.
  void on_allocation(std::span<const int> gpus, bool allocated);

  /// Largest number of free GPUs on any single socket (top-down histogram
  /// scan; sockets hold at most a few GPUs).
  int max_free_socket() const;
  int socket_count() const noexcept {
    return static_cast<int>(socket_free_.size());
  }
  /// Eq. 5 mean free-socket fraction, maintained incrementally.
  double fragmentation() const;

 private:
  double frag_sum_ = 0.0;  // sum over sockets of free/size
  std::vector<int> gpu_socket_slot_;  // per local GPU, flat socket index
  std::vector<double> socket_inv_size_;  // per socket slot, 1/size
  std::vector<int> socket_free_;      // free GPUs per socket slot
  std::vector<int> socket_hist_;      // sockets with exactly k free GPUs
};

/// One routing candidate: the cell's summary and state (whose topology is
/// the cell's), plus its current queue depth (jobs already waiting there).
struct ShardCandidate {
  const CellSummary* summary = nullptr;
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
