// Scheduler strategy interface (Algorithm 1's pluggable placement step).
//
// A Scheduler inspects the cluster state and proposes a placement for one
// job, or declines (insufficient resources / constraints / — for
// TOPO-AWARE-P — a utility below the job's threshold). The queue
// discipline (arrival-ordered, postponed jobs re-appended, Algorithm 1)
// lives in the Driver.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/state.hpp"
#include "jobgraph/jobgraph.hpp"
#include "sched/utility.hpp"

namespace gts::sched {

struct Placement {
  std::vector<int> gpus;   // one global GPU id per task
  double utility = 0.0;    // the scheduler's utility estimate
  bool satisfied = true;   // false when utility < job's min_utility
};

enum class Policy { kFcfs, kBestFit, kTopoAware, kTopoAwareP };
std::string_view to_string(Policy policy) noexcept;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Proposes GPUs for `request`, or nullopt when the job cannot (or, for
  /// postponing policies, should not) be placed now.
  virtual std::optional<Placement> place(
      const jobgraph::JobRequest& request,
      const cluster::ClusterState& state) = 0;

  /// Strict FIFO head-of-line blocking: when true the driver stops the
  /// scheduling pass at the first job that cannot be placed.
  virtual bool blocking_queue() const { return false; }

  /// A no-op: every policy scores its candidates on the decision thread.
  /// It exists only because perfbench/cpp/fig11.cpp overrides it;
  /// nothing in src/ calls it.
  virtual void set_parallel_scoring(int /*threads*/) {}
};

/// Factory for the four policies evaluated in the paper. The utility model
/// is shared so all policies are judged by the same yardstick in reports.
std::unique_ptr<Scheduler> make_scheduler(Policy policy,
                                          UtilityWeights weights = {});

/// Section 4.3's per-machine capacity rule (t_gpu <= p_gpu, t_bw <= p_bw),
/// the one host test of every placement path. A whole job (single-node,
/// not anti-collocated) needs all k GPUs and its full host-bandwidth
/// demand on `machine`; any other job needs one free GPU and an even
/// share (demand / k) of the bandwidth there.
/// Inline: TOPO-AWARE's pre-score calls it for every machine of every
/// decision.
inline bool host_fits(const jobgraph::JobRequest& request,
                      const cluster::ClusterState& state, int machine) {
  const jobgraph::JobProfile& profile = request.profile;
  const int k = request.num_gpus;
  if (profile.single_node && !profile.anti_collocate) {
    return state.machine_free_count(machine) >= k &&
           state.host_bw_available(machine, profile.host_bw_demand_gbps);
  }
  return state.machine_free_count(machine) >= 1 &&
         state.host_bw_available(machine,
                                 profile.host_bw_demand_gbps / std::max(1, k));
}

/// Host filtering (Algorithm 1's filterHostsByConstraints): the free GPUs
/// of every machine that passes host_fits, in ascending id order. Returns
/// an empty list when the job cannot currently be met: fewer than k GPUs,
/// or, for an anti-collocated job, fewer than k machines.
std::vector<int> filter_hosts(const jobgraph::JobRequest& request,
                              const cluster::ClusterState& state);

}  // namespace gts::sched
