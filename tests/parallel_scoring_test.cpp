// Parallel candidate scoring (DESIGN.md §17): fanning the per-candidate
// DRB + utility evaluations of TopoAwareScheduler across a worker pool
// must be invisible in every observable output. The harness replays a
// seeded 500-job trace without a pool and at 1, 2 and 8 worker threads,
// for both postponement modes, and asserts byte-identical scheduling
// decisions, explain JSONL and cache counters. The reduction's tie-break
// is asserted directly: on identical empty machines every thread count
// must pick the first candidate. CI runs this suite under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/recorder.hpp"
#include "decision_digest.hpp"
#include "obs/obs.hpp"
#include "perf/model.hpp"
#include "sched/driver.hpp"
#include "sched/topo_aware.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"

namespace gts::sched {
namespace {

using topo::builders::MachineShape;

std::vector<jobgraph::JobRequest> seeded_trace(
    const perf::DlWorkloadModel& model, const topo::TopologyGraph& topology,
    int jobs, std::uint64_t seed) {
  trace::GeneratorOptions options;
  options.job_count = jobs;
  options.seed = seed;
  return trace::generate_workload(options, model, topology);
}

DriverReport run_trace(const topo::TopologyGraph& topology,
                       const perf::DlWorkloadModel& model,
                       TopoAwareScheduler& scheduler,
                       const std::vector<jobgraph::JobRequest>& jobs) {
  DriverOptions options;
  options.record_series = false;
  Driver driver(topology, model, scheduler, options);
  return driver.run(jobs);
}

void expect_identical_records(const cluster::Recorder& parallel,
                              const cluster::Recorder& no_pool,
                              const std::string& label) {
  ASSERT_EQ(parallel.records().size(), no_pool.records().size()) << label;
  for (size_t i = 0; i < parallel.records().size(); ++i) {
    const cluster::JobRecord& a = parallel.records()[i];
    const cluster::JobRecord& b = no_pool.records()[i];
    EXPECT_EQ(a.id, b.id) << label << " record " << i;
    EXPECT_EQ(a.gpus, b.gpus) << label << " record " << i;
    EXPECT_DOUBLE_EQ(a.start, b.start) << label << " record " << i;
    EXPECT_DOUBLE_EQ(a.end, b.end) << label << " record " << i;
    EXPECT_DOUBLE_EQ(a.placement_utility, b.placement_utility)
        << label << " record " << i;
    EXPECT_EQ(a.p2p, b.p2p) << label << " record " << i;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

/// Zero out `"decision_us":<number>` values. decision_us is the single
/// documented wall-clock field in explain records (obs/explain.hpp) — it
/// measures the place() call, so it varies between any two runs, pooled
/// or not. Everything else must match byte-for-byte.
std::string mask_decision_us(std::string bytes) {
  const std::string key = "\"decision_us\":";
  size_t pos = 0;
  while ((pos = bytes.find(key, pos)) != std::string::npos) {
    const size_t value_begin = pos + key.size();
    size_t value_end = value_begin;
    while (value_end < bytes.size() && bytes[value_end] != ',' &&
           bytes[value_end] != '}') {
      ++value_end;
    }
    bytes.replace(value_begin, value_end - value_begin, "0");
    pos = value_begin;
  }
  return bytes;
}

// The headline differential: a seeded 500-job trace on an 8-machine
// cluster (large enough that every single-node job takes the pre-scored
// candidate path the parallel scorer fans out) schedules identically —
// same GPUs, same times, same utilities, job by job — at every worker
// count, and the cache/DRB counters match the run without a pool.
TEST(ParallelScoringTest, MatchesNoPoolRunOn500JobTrace) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = seeded_trace(model, topology, 500, /*seed=*/20260807);

  for (const bool postpone : {false, true}) {
    TopoAwareScheduler no_pool({}, postpone);
    const DriverReport reference = run_trace(topology, model, no_pool, jobs);
    ASSERT_EQ(reference.recorder.records().size(), 500u);
    EXPECT_EQ(no_pool.scoring_threads(), 0);

    for (const int threads : {1, 2, 8}) {
      const std::string label = "postpone=" + std::to_string(postpone) +
                                " threads=" + std::to_string(threads);
      TopoAwareScheduler parallel({}, postpone);
      parallel.set_parallel_scoring(threads);
      ASSERT_EQ(parallel.scoring_threads(), threads) << label;
      const DriverReport report = run_trace(topology, model, parallel, jobs);

      expect_identical_records(report.recorder, reference.recorder, label);
      EXPECT_EQ(report.recorder.slo_violations(),
                reference.recorder.slo_violations())
          << label;

      // Counters are part of the contract: probes happen on the decision
      // thread in candidate order, so hit/miss/flush sequences — not
      // just decisions — must not depend on the pool.
      EXPECT_EQ(parallel.cache_stats().lookups,
                no_pool.cache_stats().lookups)
          << label;
      EXPECT_EQ(parallel.cache_stats().hits, no_pool.cache_stats().hits)
          << label;
      EXPECT_EQ(parallel.cache_stats().invalidations,
                no_pool.cache_stats().invalidations)
          << label;
      EXPECT_EQ(parallel.drb_stats().bipartitions,
                no_pool.drb_stats().bipartitions)
          << label;
      EXPECT_EQ(parallel.drb_stats().fm_passes,
                no_pool.drb_stats().fm_passes)
          << label;
      EXPECT_EQ(parallel.drb_stats().max_depth,
                no_pool.drb_stats().max_depth)
          << label;
      EXPECT_EQ(parallel.scoring_stats().scored,
                no_pool.scoring_stats().scored)
          << label;
      EXPECT_EQ(parallel.scoring_stats().twin_reuses,
                no_pool.scoring_stats().twin_reuses)
          << label;
    }
  }
}

// Explain output is decision-order bookkeeping, so it must also be
// byte-identical: workers never touch the DecisionScope — candidates are
// replayed on the decision thread in candidate order. The sole exception
// is decision_us, the documented wall-clock latency of place() itself,
// which is masked before comparing; every other byte (candidate lists,
// utilities, sequence numbers, outcomes) must match exactly.
TEST(ParallelScoringTest, ExplainJsonlByteIdenticalAcrossThreadCounts) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = seeded_trace(model, topology, 150, /*seed=*/20260807);

  const auto explain_run = [&](int threads, const std::string& path) {
    obs::ObsConfig config;
    config.explain_out = path;
    ASSERT_TRUE(obs::configure(config));
    TopoAwareScheduler scheduler({}, /*postpone=*/true);
    if (threads > 0) scheduler.set_parallel_scoring(threads);
    run_trace(topology, model, scheduler, jobs);
    ASSERT_TRUE(obs::finalize());
    obs::reset();
  };

  const std::string no_pool_path =
      ::testing::TempDir() + "parallel_scoring_no_pool.jsonl";
  const std::string parallel_path =
      ::testing::TempDir() + "parallel_scoring_parallel.jsonl";
  explain_run(0, no_pool_path);
  const std::string no_pool_bytes =
      mask_decision_us(read_file(no_pool_path));
  ASSERT_FALSE(no_pool_bytes.empty());
  for (const int threads : {2, 8}) {
    explain_run(threads, parallel_path);
    EXPECT_EQ(mask_decision_us(read_file(parallel_path)), no_pool_bytes)
        << "threads=" << threads;
    std::remove(parallel_path.c_str());
  }
  std::remove(no_pool_path.c_str());
}

// set_parallel_scoring(0) tears the pool down and scores inline;
// re-enabling mid-life keeps decisions identical (the pool is an
// implementation detail, not scheduler state).
TEST(ParallelScoringTest, TogglingThePoolMidLifeKeepsDecisionsIdentical) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = seeded_trace(model, topology, 60, /*seed=*/99);

  TopoAwareScheduler no_pool({}, /*postpone=*/false);
  const DriverReport reference = run_trace(topology, model, no_pool, jobs);

  TopoAwareScheduler toggled({}, /*postpone=*/false);
  toggled.set_parallel_scoring(4);
  EXPECT_EQ(toggled.scoring_threads(), 4);
  toggled.set_parallel_scoring(0);
  EXPECT_EQ(toggled.scoring_threads(), 0);
  toggled.set_parallel_scoring(2);
  EXPECT_EQ(toggled.scoring_threads(), 2);
  const DriverReport report = run_trace(topology, model, toggled, jobs);
  expect_identical_records(report.recorder, reference.recorder, "toggled");
}

// The reduction keeps the FIRST maximum in candidate order. Eight
// identical empty machines tie on both the pre-score and the utility, so
// every thread count — no pool, and pools of 1, 2 and 8 workers — must
// place the job on machine 0. A last-maximum reduction would pick
// machine 7.
TEST(ParallelScoringTest, UtilityTiesBreakTowardTheFirstMachine) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const cluster::ClusterState state(topology, model);
  const jobgraph::JobRequest job = jobgraph::JobRequest::make_dl(
      1, 0.0, jobgraph::NeuralNet::kAlexNet, 4, 2, 0.4, 250);

  for (const int threads : {0, 1, 2, 8}) {
    TopoAwareScheduler scheduler({}, /*postpone=*/false);
    scheduler.set_parallel_scoring(threads);
    const auto placement = scheduler.place(job, state);
    ASSERT_TRUE(placement.has_value()) << "threads=" << threads;
    ASSERT_EQ(placement->gpus.size(), 2u) << "threads=" << threads;
    for (const int gpu : placement->gpus) {
      EXPECT_EQ(topology.machine_of_gpu(gpu), 0)
          << "threads=" << threads << " gpu " << gpu;
    }
  }
}

// Twin reuse (DESIGN.md §17.1) fires most on a large, lightly loaded
// cluster of one machine shape, where nearly every candidate is an empty
// machine. Decisions and cache traffic of a seeded 300-job TOPO-AWARE-P
// trace of short jobs on 40 Minsky machines (16 candidates per decision)
// are pinned by values recorded before twin reuse existed
// (tests/decision_digest.hpp), with and without a pool.
constexpr std::uint64_t kTwinTraceDigest = 0x0d2ad6b703386cbaULL;
constexpr long long kTwinTraceLookups = 4800;
constexpr long long kTwinTraceHits = 0;
constexpr long long kTwinTraceInvalidations = 299;

TEST(ParallelScoringTest, TwinReuseKeepsCommittedDecisionsAndCacheTraffic) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(40, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  trace::GeneratorOptions options;
  options.job_count = 300;
  options.seed = 20261018;
  options.iterations = 250;
  const auto jobs = trace::generate_workload(options, model, topology);

  for (const int threads : {0, 4}) {
    const std::string label = "threads=" + std::to_string(threads);
    TopoAwareScheduler scheduler({}, /*postpone=*/true);
    scheduler.set_parallel_scoring(threads);
    const DriverReport report = run_trace(topology, model, scheduler, jobs);
    const std::uint64_t digest =
        testing_digest::decision_digest(report.recorder);
    EXPECT_EQ(digest, kTwinTraceDigest)
        << label << " digest " << testing_digest::hex(digest);
    const PlacementCacheStats cache = scheduler.cache_stats();
    EXPECT_EQ(cache.lookups, kTwinTraceLookups) << label;
    EXPECT_EQ(cache.hits, kTwinTraceHits) << label;
    EXPECT_EQ(cache.invalidations, kTwinTraceInvalidations) << label;
    // Every cache miss is either scored or a twin, and twins did fire.
    const ScoringStats& scoring = scheduler.scoring_stats();
    EXPECT_EQ(scoring.scored + scoring.twin_reuses, cache.lookups - cache.hits)
        << label;
    EXPECT_GT(scoring.twin_reuses, scoring.scored) << label;
  }
}

}  // namespace
}  // namespace gts::sched
