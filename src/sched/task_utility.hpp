// Algorithm 3's U(task, Py): the three utility factors for routing one
// task to one side of the current physical bipartition, using only
// information available mid-recursion (side GPU sets and the tasks
// already routed).
//
// Hot-path layout: during one job bipartition the side GPU sets are fixed
// — only the routed task lists grow — so every factor that depends on the
// GPU sets alone (mean intra-side distance, mean cross-cut distance, the
// co-runner interference factor, fragmentation free/total counts) is a
// per-side constant. DrbCallbacks::begin_bipartition marks the sides;
// the first task_utility call against a side fills its cache and every
// later call is O(task degree). Membership of a partner task in the
// other side's routed list is a bitset probe instead of a linear find.
//
// A call against GPU vectors begin_bipartition did not mark recomputes
// every factor from scratch; tests/perf_path_test.cpp holds the cached
// aggregates to that fallback within 1e-9.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/state.hpp"
#include "jobgraph/jobgraph.hpp"
#include "partition/drb.hpp"
#include "sched/utility.hpp"

namespace gts::sched {

class TaskUtility final : public partition::DrbCallbacks {
 public:
  TaskUtility(const jobgraph::JobRequest& request,
              const cluster::ClusterState& state, const UtilityModel& model);

  void begin_bipartition(const std::vector<int>& gpus0,
                         const std::vector<int>& gpus1) const override;

  double task_utility(int task, int side,
                      const partition::BipartitionView& view) const override;

 private:
  /// getCommCost(): expected distance from `task` to its communication
  /// partners. Same-side partners cost the side's mean internal distance;
  /// cross-side partners the mean distance across the cut; unrouted
  /// partners are optimistically assumed co-located.
  double comm_utility(int task, double d_intra, double d_cross,
                      const std::vector<int>& other_tasks) const;

  /// getInter(): 1 / predicted co-runner slowdown factor on this side.
  double interference_utility(const std::vector<int>& side_gpus) const;

  /// Free/total GPU counts over the machines this side touches (Eq. 5's
  /// denominator and pre-placement numerator).
  void fragmentation_counts(const std::vector<int>& side_gpus, int* total,
                            int* free_now) const;

  double mean_internal_distance(const std::vector<int>& gpus) const;
  double mean_cross_distance(const std::vector<int>& a,
                             const std::vector<int>& b) const;

  const jobgraph::JobRequest& request_;
  const cluster::ClusterState& state_;
  const UtilityModel& model_;
  double comm_weight_;

  // Per-task communication partners, edge order preserved so the weighted
  // sums accumulate in exactly the order of the original all-edges scan.
  std::vector<std::vector<std::pair<int, double>>> adjacency_;

  // Side aggregates for the current bipartition, keyed by the GPU-set
  // addresses announced by begin_bipartition and filled lazily.
  struct SideCache {
    bool valid = false;
    double d_intra = 1.0;
    double d_cross = 1.0;
    double interference = 1.0;
    int frag_total = 0;
    int frag_free = 0;
  };
  mutable const std::vector<int>* bip_gpus_[2] = {nullptr, nullptr};
  mutable SideCache side_cache_[2];

  // Scratch: task-id bitset for "partner routed to the other side", a
  // machine-id list for the fragmentation scan and the co-runner gather.
  mutable std::vector<std::uint8_t> on_other_;
  mutable std::vector<int> machines_scratch_;
  mutable cluster::CoRunnerScratch co_scratch_;
};

}  // namespace gts::sched
