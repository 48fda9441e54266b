// The paper's topology-aware placement algorithm (Section 4.4).
//
// TOPO-AWARE and TOPO-AWARE-P share the same placement machinery — host
// filtering, then the DRB mapper (Algorithms 2/3) driven by the utility
// model — and differ only in the postponement rule: TOPO-AWARE-P declines
// placements whose utility falls below the job's min_utility threshold
// (out-of-order execution; the job waits for a better allocation), while
// TOPO-AWARE always places when resources suffice.
#pragma once

#include <cstdint>
#include <string>

#include "partition/drb.hpp"
#include "sched/scheduler.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace gts::sched {

/// Placement-cache counters. The cache is gone (DESIGN.md §12), so these
/// read 0; the struct stays for perfbench/cpp/fig11.cpp, its only reader.
struct PlacementCacheStats {
  long long lookups = 0;
  long long hits = 0;

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// How the scheduler obtained the placements it weighed (deterministic
/// counts of DRB work, next to DrbStats).
struct ScoringStats {
  long long scored = 0;       // DRB + utility evaluations actually run
  long long twin_reuses = 0;  // empty candidates given a twin's result
};

/// Maps `request` onto the `available` GPUs with the utility-driven DRB
/// (Algorithms 2/3) and evaluates the resulting placement. Writes nothing
/// of the caller's but `stats` (when given, it accumulates DRB counters)
/// and emits no explain output.
std::optional<Placement> drb_evaluate(const jobgraph::JobRequest& request,
                                      const std::vector<int>& available,
                                      const cluster::ClusterState& state,
                                      const UtilityModel& utility,
                                      partition::DrbStats* stats = nullptr);

/// drb_evaluate, plus the placement's "drb" entry in the explain record of
/// the decision in flight. The building block behind TopoAwareScheduler
/// and external integrations (the Kubernetes shim).
std::optional<Placement> drb_place(const jobgraph::JobRequest& request,
                                   const std::vector<int>& available,
                                   const cluster::ClusterState& state,
                                   const UtilityModel& utility,
                                   partition::DrbStats* stats = nullptr);

class TopoAwareScheduler final : public Scheduler {
 public:
  TopoAwareScheduler(UtilityWeights weights, bool postpone)
      : utility_(weights), postpone_(postpone) {}

  /// Above this machine count, single-node jobs use the scalable placement
  /// path: candidate machines are pre-scored cheaply (pack availability,
  /// co-runner count, free capacity) and only the best `candidate_limit`
  /// run the full DRB + utility evaluation. Below it, one DRB runs over
  /// the whole filtered GPU set exactly as in Algorithm 1.
  static constexpr int direct_drb_machine_limit = 4;
  static constexpr int candidate_limit = 16;

  std::string name() const override {
    return postpone_ ? "TOPO-AWARE-P" : "TOPO-AWARE";
  }

  std::optional<Placement> place(const jobgraph::JobRequest& request,
                                 const cluster::ClusterState& state) override;

  const UtilityModel& utility_model() const noexcept { return utility_; }

  /// Cumulative DRB statistics (for the Section 5.5.3 overhead analysis).
  /// Twin reuses skip the DRB entirely and do not accumulate here.
  partition::DrbStats drb_stats() const noexcept {
    const util::SerialGuard guard(replica_serial_);
    return stats_;
  }
  /// Candidates scored by DRB and candidates that reused an identical
  /// empty machine's result within one decision (DESIGN.md §17.1).
  ScoringStats scoring_stats() const noexcept {
    const util::SerialGuard guard(replica_serial_);
    return scoring_;
  }
  /// Always empty: kept only because perfbench/cpp/fig11.cpp reads it.
  PlacementCacheStats cache_stats() const noexcept { return {}; }

 private:
  std::optional<Placement> place_on_best_machine(
      const jobgraph::JobRequest& request,
      const cluster::ClusterState& state) GTS_REQUIRES(replica_serial_);

  UtilityModel utility_;
  bool postpone_;

  // Replica-confinement role (DESIGN.md §16.2): the DRB and scoring
  // counters are private to one scheduler replica and are accessed
  // without locking. The sweep runner and the shard cells give each
  // worker thread its own scheduler, so the role is never contended
  // today; annotating it documents the contract and turns any future
  // cross-thread sharing of one replica into a compile-time error instead
  // of a data race.
  mutable util::SerialCapability replica_serial_;
  partition::DrbStats stats_ GTS_GUARDED_BY(replica_serial_);
  ScoringStats scoring_ GTS_GUARDED_BY(replica_serial_);
};

}  // namespace gts::sched
