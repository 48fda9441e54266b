// The paper's topology-aware placement algorithm (Section 4.4).
//
// TOPO-AWARE and TOPO-AWARE-P share the same placement machinery — host
// filtering, then the DRB mapper (Algorithms 2/3) driven by the utility
// model — and differ only in the postponement rule: TOPO-AWARE-P declines
// placements whose utility falls below the job's min_utility threshold
// (out-of-order execution; the job waits for a better allocation), while
// TOPO-AWARE always places when resources suffice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

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
  long long twin_reuses = 0;  // empty candidates served from the memo
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

class TopoAwareScheduler final : public Scheduler {
 public:
  TopoAwareScheduler(UtilityWeights weights, bool postpone)
      : utility_(weights), postpone_(postpone) {}

  /// Above this machine count, single-node jobs use the scalable placement
  /// path: candidate machines are pre-scored from the capacity index
  /// (pack availability, co-runner count, free capacity) and only the
  /// best `candidate_limit` get the full DRB + utility evaluation, run or
  /// served from the empty-machine memo. Below it, one DRB runs over the
  /// whole filtered GPU set exactly as in Algorithm 1.
  static constexpr int direct_drb_machine_limit = 4;
  static constexpr int candidate_limit = 16;
  /// Most (machine class, job shape) results the empty-machine memo holds
  /// (DESIGN.md §17.1); a store past it empties the memo first.
  static constexpr std::size_t empty_memo_cap = 1024;

  std::string name() const override {
    return postpone_ ? "TOPO-AWARE-P" : "TOPO-AWARE";
  }

  std::optional<Placement> place(const jobgraph::JobRequest& request,
                                 const cluster::ClusterState& state) override;

  const UtilityModel& utility_model() const noexcept { return utility_; }

  /// Cumulative DRB statistics (for the Section 5.5.3 overhead analysis).
  /// Memo hits skip the DRB entirely and do not accumulate here.
  partition::DrbStats drb_stats() const noexcept {
    const util::SerialGuard guard(replica_serial_);
    return stats_;
  }
  /// Candidates scored by DRB and empty candidates served from the
  /// empty-machine memo (DESIGN.md §17.1).
  ScoringStats scoring_stats() const noexcept {
    const util::SerialGuard guard(replica_serial_);
    return scoring_;
  }
  /// Writes `request`'s job shape, the memo's key within a machine class,
  /// into `key`: every request field drb_evaluate reads, and nothing else
  /// (id, min_utility and arrival_time never reach DRB or the utility).
  static void memo_shape_key(const jobgraph::JobRequest& request,
                             std::vector<std::uint64_t>& key);
  /// (machine class, job shape) results the empty-machine memo holds now.
  std::size_t empty_memo_size() const noexcept {
    const util::SerialGuard guard(replica_serial_);
    return memo_entries_;
  }
  /// Always empty: kept only because perfbench/cpp/fig11.cpp reads it.
  PlacementCacheStats cache_stats() const noexcept { return {}; }

 private:
  /// One empty machine's DRB + utility result: the placement as local
  /// GPU indices (gpus_of_machine positions) and its utility, or no
  /// placement at all.
  struct EmptyResult {
    bool placed = false;
    std::vector<int> local_gpus;
    double utility = 0.0;
  };
  /// Results of one job shape, by machine class.
  using ClassResults = std::unordered_map<int, EmptyResult>;
  struct ShapeHash {
    std::size_t operator()(const std::vector<std::uint64_t>& key) const;
  };

  std::optional<Placement> place_on_best_machine(
      const jobgraph::JobRequest& request,
      const cluster::ClusterState& state) GTS_REQUIRES(replica_serial_);
  /// The memo's results for `request`'s shape, or nullptr; builds the
  /// shape key into shape_key_ first.
  ClassResults* find_shape(const jobgraph::JobRequest& request)
      GTS_REQUIRES(replica_serial_);
  /// Stores `placement` (made on `machine`) as the result of the shape in
  /// shape_key_ on `machine`'s class; returns the shape's results, which
  /// move when the store first empties a full memo.
  ClassResults* store_result(ClassResults* shape, int machine,
                             const std::optional<Placement>& placement,
                             const topo::TopologyGraph& topology)
      GTS_REQUIRES(replica_serial_);

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

  // Empty-machine memo (DESIGN.md §17.1): job shape key -> results by
  // machine class, for the topology and model whose instance tags it
  // holds. memo_entries_ counts (shape, class) results.
  std::unordered_map<std::vector<std::uint64_t>, ClassResults, ShapeHash>
      memo_ GTS_GUARDED_BY(replica_serial_);
  std::size_t memo_entries_ GTS_GUARDED_BY(replica_serial_) = 0;
  std::uint64_t memo_topology_ GTS_GUARDED_BY(replica_serial_) = 0;
  std::uint64_t memo_model_ GTS_GUARDED_BY(replica_serial_) = 0;
  std::vector<std::uint64_t> shape_key_ GTS_GUARDED_BY(replica_serial_);
};

}  // namespace gts::sched
