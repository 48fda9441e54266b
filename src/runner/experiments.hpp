// Sweep adapters for the paper's experiment scenarios: the replica
// payloads behind BENCH_fig10.json / BENCH_fig11.json and the Fig. 8
// golden-file metrics, shared by the bench binaries and the tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenarios.hpp"
#include "runner/sweep.hpp"

namespace gts::runner {

/// One large-scale replica (Section 5.5): runs exp::run_large_scale for
/// `seed` and flattens the four-policy comparison into a payload object:
///   { "events": N,
///     "policies": { "<policy>": { "makespan_s", "slo_violations",
///         "qos_mean", "qos_p95", "qos_max", "qos_wait_mean",
///         "qos_wait_p95", "mean_wait_s", "sched_stats", "capacity_skips",
///         "timing": { "mean_decision_us" } } } }
/// With `include_curves`, each policy also carries the sorted slowdown
/// arrays ("qos_curve", "qos_wait_curve") the Fig. 10 charts plot.
json::Value large_scale_payload(const exp::LargeScaleOptions& options,
                                bool include_curves = false);

/// Flattens a finished four-policy comparison into the standard payload
/// object described above: per-policy QoS metrics, deterministic
/// "sched_stats" (cache + DRB counters) and "capacity_skips" (queue offers
/// the driver's capacity gate declined), and a "timing" subtree carrying
/// the mean decision latency plus the full per-decision histogram.
json::Value policy_comparison_payload(const exp::PolicyComparison& comparison,
                                      bool include_curves = false);

struct LargeScaleSweepConfig {
  std::string name = "fig10";   // BENCH_<name>.json
  int machines = 5;
  int jobs = 100;
  long long iterations = 250;
  std::vector<std::uint64_t> seeds = {1};
  int threads = 1;
  bool include_curves = false;
};

/// Fans the (single scenario x seeds) replicas of a large-scale experiment
/// across the pool. The scenario label encodes the cluster size, e.g.
/// "minsky-5m-100j".
SweepResult run_large_scale_sweep(const LargeScaleSweepConfig& config);

/// Renders the per-policy aggregate table of a large-scale sweep (mean
/// over seeds with 95% CI half-widths where more than one seed ran).
std::string render_large_scale_table(const SweepResult& result);

/// Looks up one aggregated metric ("policies.TOPO-AWARE-P.qos_mean") of
/// `scenario`; returns an empty summary (count 0) when absent.
metrics::Summary find_aggregate(const SweepResult& result,
                                const std::string& scenario,
                                const std::string& metric);

/// The Fig. 8 prototype metrics document (tests/golden/fig8.json): the
/// Table 1 workload on one Minsky machine under all four policies, with
/// per-policy makespan / SLO / waiting summaries and per-job placement
/// records (start, end, GPUs, utility, QoS slowdowns). Fully
/// deterministic. Regenerate the golden file with:
///   build-release/bench/bench_fig8_prototype --golden-out tests/golden/fig8.json
json::Value fig8_payload();

}  // namespace gts::runner
