// Scheduler strategy interface (Algorithm 1's pluggable placement step).
//
// A Scheduler inspects the cluster state and proposes a placement for one
// job, or declines (insufficient resources / constraints / — for
// TOPO-AWARE-P — a utility below the job's threshold). The queue
// discipline (arrival-ordered, postponed jobs re-appended, Algorithm 1)
// lives in the Driver.
#pragma once

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

/// Host filtering (Algorithm 1's filterHostsByConstraints): free GPUs the
/// job may use, honoring single-node / anti-collocation constraints.
/// Returns an empty list when constraints cannot currently be met.
std::vector<int> filter_hosts(const jobgraph::JobRequest& request,
                              const cluster::ClusterState& state);

}  // namespace gts::sched
