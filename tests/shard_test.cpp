// Sharded-scheduling differential suite (DESIGN.md section 19).
//
// The load-bearing guarantees of src/shard/ are all *relative* to the
// unsharded sched::Driver, so nearly every test here is differential:
//   * cell extraction preserves machine/GPU structure and id mappings;
//   * a 1-shard ShardedDriver is byte-identical to a plain Driver on the
//     Fig. 8 prototype workload and, under all four policies, on a 500-job
//     generated trace at two arrival rates;
//   * an N-shard run is byte-identical for --shard-threads {1, 2, 8};
//   * advance_to(t) enacts an arrival at exactly t, as Driver does;
//   * the router's Filter stage and the driver's capacity gate are sound:
//     they never reject a shard any of the four policies would have
//     placed the job into (checked over seeded random occupancy patterns);
//   * a sharded ServiceCore snapshot restores and re-snapshots
//     byte-identically, and the continuation matches the uninterrupted
//     run verb-for-verb.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/recorder.hpp"
#include "cluster/state.hpp"
#include "decision_digest.hpp"
#include "exp/scenarios.hpp"
#include "jobgraph/manifest.hpp"
#include "perf/profile.hpp"
#include "sched/driver.hpp"
#include "sched/topo_aware.hpp"
#include "shard/cells.hpp"
#include "shard/sharded_driver.hpp"
#include "shard/summary.hpp"
#include "svc/service.hpp"
#include "svc/snapshot.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"

namespace gts::shard {
namespace {

using jobgraph::JobRequest;
using jobgraph::NeuralNet;
using topo::builders::MachineShape;

/// Field-by-field bitwise comparison of two job records. EXPECT_EQ on the
/// doubles is deliberate: "byte-identical" means the same bits, not
/// nearly-equal values.
void expect_identical_record(const cluster::JobRecord& got,
                             const cluster::JobRecord& want,
                             const std::string& label) {
  EXPECT_EQ(got.id, want.id) << label;
  EXPECT_EQ(got.num_gpus, want.num_gpus) << label << " job " << want.id;
  EXPECT_EQ(got.arrival, want.arrival) << label << " job " << want.id;
  EXPECT_EQ(got.start, want.start) << label << " job " << want.id;
  EXPECT_EQ(got.end, want.end) << label << " job " << want.id;
  EXPECT_EQ(got.cancelled, want.cancelled) << label << " job " << want.id;
  EXPECT_EQ(got.gpus, want.gpus) << label << " job " << want.id;
  EXPECT_EQ(got.placement_utility, want.placement_utility)
      << label << " job " << want.id;
  EXPECT_EQ(got.p2p, want.p2p) << label << " job " << want.id;
  EXPECT_EQ(got.best_solo_time, want.best_solo_time)
      << label << " job " << want.id;
  EXPECT_EQ(got.postponements, want.postponements)
      << label << " job " << want.id;
  EXPECT_EQ(got.degradation_events, want.degradation_events)
      << label << " job " << want.id;
}

void expect_identical_recorders(const cluster::Recorder& got,
                                const cluster::Recorder& want,
                                const std::string& label) {
  ASSERT_EQ(got.records().size(), want.records().size()) << label;
  for (const cluster::JobRecord& record : want.records()) {
    const cluster::JobRecord* other = got.find(record.id);
    ASSERT_NE(other, nullptr) << label << " missing job " << record.id;
    expect_identical_record(*other, record, label);
  }
}

// --- cell extraction --------------------------------------------------------

TEST(CellPartitionTest, SplitsContiguouslyWithRemainderUpFront) {
  const auto even = partition_machines(10, 2);
  ASSERT_EQ(even.size(), 2u);
  EXPECT_EQ(even[0], (std::pair<int, int>{0, 5}));
  EXPECT_EQ(even[1], (std::pair<int, int>{5, 10}));

  // 10 = 4 + 3 + 3: the first machines % shards cells get the extra.
  const auto uneven = partition_machines(10, 3);
  ASSERT_EQ(uneven.size(), 3u);
  EXPECT_EQ(uneven[0], (std::pair<int, int>{0, 4}));
  EXPECT_EQ(uneven[1], (std::pair<int, int>{4, 7}));
  EXPECT_EQ(uneven[2], (std::pair<int, int>{7, 10}));

  // Shard count clamps to the machine count (never an empty cell).
  const auto clamped = partition_machines(3, 8);
  ASSERT_EQ(clamped.size(), 3u);
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(clamped[static_cast<size_t>(m)],
              (std::pair<int, int>{m, m + 1}));
  }
}

TEST(CellPartitionTest, ExtractCellPreservesStructureAndIdMaps) {
  const topo::TopologyGraph cluster =
      topo::builders::cluster(6, MachineShape::kPower8Minsky);
  const int per_machine = cluster.gpu_count() / 6;

  const CellTopology cell = extract_cell(cluster, 2, 5);
  EXPECT_EQ(cell.machine_begin, 2);
  EXPECT_EQ(cell.graph.machine_count(), 3);
  EXPECT_EQ(cell.graph.gpu_count(), 3 * per_machine);
  ASSERT_EQ(cell.gpu_to_global.size(),
            static_cast<size_t>(cell.graph.gpu_count()));
  // Global ids are dense, ascending, and each local GPU sits on the
  // machine its global twin occupies (shifted by machine_begin).
  EXPECT_TRUE(std::is_sorted(cell.gpu_to_global.begin(),
                             cell.gpu_to_global.end()));
  for (int local = 0; local < cell.graph.gpu_count(); ++local) {
    const int global = cell.gpu_to_global[static_cast<size_t>(local)];
    EXPECT_EQ(cell.graph.machine_of_gpu(local) + 2,
              cluster.machine_of_gpu(global))
        << "local gpu " << local;
  }

  // A single-machine cell matches the standalone machine graph shape:
  // no synthetic network root.
  const CellTopology solo = extract_cell(cluster, 5, 6);
  EXPECT_EQ(solo.graph.machine_count(), 1);
  EXPECT_EQ(solo.graph.gpu_count(), per_machine);
  EXPECT_EQ(solo.graph.node_count(),
            topo::builders::power8_minsky().node_count());
}

// --- 1-shard byte-identity --------------------------------------------------

class ShardDifferentialTest : public ::testing::Test {
 protected:
  perf::DlWorkloadModel model_{perf::CalibrationParams::paper_minsky()};

  sched::DriverReport run_unsharded(
      const topo::TopologyGraph& topology, std::vector<JobRequest> jobs,
      sched::Policy policy = sched::Policy::kTopoAwareP) {
    const auto scheduler = sched::make_scheduler(policy);
    sched::Driver driver(topology, model_, *scheduler);
    return driver.run(std::move(jobs));
  }

  sched::DriverReport run_sharded(
      const topo::TopologyGraph& topology, std::vector<JobRequest> jobs,
      int shards, int shard_threads = 1,
      sched::Policy policy = sched::Policy::kTopoAwareP) {
    ShardedOptions options;
    options.shards = shards;
    options.shard_threads = shard_threads;
    options.policy = policy;
    ShardedDriver driver(topology, model_, options);
    return driver.run(std::move(jobs));
  }
};

TEST_F(ShardDifferentialTest, OneShardMatchesDriverOnFig8Workload) {
  const topo::TopologyGraph topology = topo::builders::power8_minsky();
  const auto jobs = exp::table1_jobs(model_, topology, /*iterations=*/700);

  const sched::DriverReport want = run_unsharded(topology, jobs);
  const sched::DriverReport got = run_sharded(topology, jobs, /*shards=*/1);

  expect_identical_recorders(got.recorder, want.recorder, "fig8");
  EXPECT_EQ(got.decision_count, want.decision_count);
  EXPECT_EQ(got.recorder.makespan(), want.recorder.makespan());
}

TEST_F(ShardDifferentialTest, OneShardMatchesDriverOn500JobTrace) {
  // One cell runs the full routing/translation path, so it must equal
  // the plain Driver under every policy. Two arrival rates: the
  // generator's default and Scenario 2's 2 jobs/min per machine (fig11's
  // load). On these 4 machines both keep the queue long: 54-62 offers
  // per job under BF and TOPO-AWARE(-P), almost all of them re-offers.
  const topo::TopologyGraph topology = topo::builders::make_cluster(
      4, 4, MachineShape::kPower8Minsky);
  const double default_rate = trace::GeneratorOptions{}.arrival_rate_per_minute;
  for (const double rate : {default_rate, 2.0 * topology.machine_count()}) {
    trace::GeneratorOptions options;
    options.job_count = 500;
    options.iterations = 400;
    options.seed = 42;
    options.arrival_rate_per_minute = rate;
    const auto jobs = trace::generate_workload(options, model_, topology);
    ASSERT_EQ(jobs.size(), 500u);

    for (const sched::Policy policy :
         {sched::Policy::kFcfs, sched::Policy::kBestFit,
          sched::Policy::kTopoAware, sched::Policy::kTopoAwareP}) {
      const std::string label = "trace500 " +
                                std::string(sched::to_string(policy)) +
                                " rate=" + std::to_string(rate);
      const sched::DriverReport want =
          run_unsharded(topology, jobs, policy);
      const sched::DriverReport got = run_sharded(
          topology, jobs, /*shards=*/1, /*shard_threads=*/1, policy);

      expect_identical_recorders(got.recorder, want.recorder, label);
      EXPECT_EQ(got.decision_count, want.decision_count) << label;
      EXPECT_EQ(got.capacity_skips, want.capacity_skips) << label;
      EXPECT_EQ(got.rejected_jobs, want.rejected_jobs) << label;
      EXPECT_GT(want.recorder.total_postponements(), 0) << label;
    }
  }
}

TEST_F(ShardDifferentialTest, AdvanceToEnactsArrivalsAtExactlyT) {
  // An arrival at exactly t is due at advance_to(t): the plain Driver
  // starts it, and so must the facade with one or two cells.
  const topo::TopologyGraph topology =
      topo::builders::cluster(2, MachineShape::kPower8Minsky);
  const JobRequest job = perf::make_profiled_dl(
      0, 0.0, NeuralNet::kAlexNet, 1, 2, 0.5, model_, topology, 100);

  const auto scheduler = sched::make_scheduler(sched::Policy::kTopoAwareP);
  sched::Driver driver(topology, model_, *scheduler);
  ASSERT_EQ(driver.submit(job), sched::SubmitResult::kAccepted);
  driver.advance_to(0.0);
  ASSERT_EQ(driver.running_job_count(), 1);
  ASSERT_EQ(driver.pending_count(), 0);

  for (const int shards : {1, 2}) {
    ShardedOptions options;
    options.shards = shards;
    ShardedDriver sharded(topology, model_, options);
    ASSERT_EQ(sharded.submit(job), sched::SubmitResult::kAccepted);
    sharded.advance_to(0.0);
    EXPECT_EQ(sharded.running_job_count(), driver.running_job_count())
        << "shards=" << shards;
    EXPECT_EQ(sharded.pending_count(), driver.pending_count())
        << "shards=" << shards;
    EXPECT_EQ(sharded.queue_depth(), driver.queue_depth())
        << "shards=" << shards;
  }
}

// --- shard-thread determinism -----------------------------------------------

TEST_F(ShardDifferentialTest, ShardThreadsAreByteIdentical) {
  const topo::TopologyGraph topology = topo::builders::make_cluster(
      8, 4, MachineShape::kPower8Minsky);
  trace::GeneratorOptions options;
  options.job_count = 300;
  options.iterations = 400;
  options.seed = 7;
  const auto jobs = trace::generate_workload(options, model_, topology);

  const sched::DriverReport serial =
      run_sharded(topology, jobs, /*shards=*/4, /*shard_threads=*/1);
  for (const int threads : {2, 8}) {
    const sched::DriverReport pooled =
        run_sharded(topology, jobs, /*shards=*/4, threads);
    expect_identical_recorders(pooled.recorder, serial.recorder,
                               "threads=" + std::to_string(threads));
    EXPECT_EQ(pooled.decision_count, serial.decision_count);
    EXPECT_EQ(pooled.rejected_jobs, serial.rejected_jobs);
  }
}

TEST_F(ShardDifferentialTest, ShardedRunPlacesEveryGlobalGpuOnce) {
  // Structural sanity of the global id space: concurrent records never
  // share a GPU, and every published id is within the cluster.
  const topo::TopologyGraph topology = topo::builders::make_cluster(
      6, 4, MachineShape::kPower8Minsky);
  trace::GeneratorOptions options;
  options.job_count = 120;
  options.iterations = 300;
  options.seed = 11;
  const auto jobs = trace::generate_workload(options, model_, topology);

  const sched::DriverReport report =
      run_sharded(topology, jobs, /*shards=*/3);
  for (const cluster::JobRecord& a : report.recorder.records()) {
    if (!a.placed()) continue;
    for (const int gpu : a.gpus) {
      EXPECT_GE(gpu, 0);
      EXPECT_LT(gpu, topology.gpu_count());
    }
    for (const cluster::JobRecord& b : report.recorder.records()) {
      if (b.id <= a.id || !b.placed()) continue;
      const bool overlap_in_time =
          a.start < (b.finished() ? b.end : b.start + 1.0) &&
          b.start < (a.finished() ? a.end : a.start + 1.0);
      if (!overlap_in_time) continue;
      for (const int gpu : a.gpus) {
        EXPECT_EQ(std::count(b.gpus.begin(), b.gpus.end(), gpu), 0)
            << "jobs " << a.id << " and " << b.id << " share gpu " << gpu;
      }
    }
  }
}

// --- router Filter soundness ------------------------------------------------

// A seeded smoke-size copy of the scale-light benchmark (64 Minsky
// machines in 2 cells, TOPO-AWARE-P, 400 short jobs at one job per
// machine-minute). Its decisions and the cells' summed DRB work are
// pinned, so a change that re-runs DRB where the empty-machine memo
// (DESIGN.md §17.1) served a result fails here.
TEST(ShardedWorkTest, SmokeScaleLightPinsDecisionsAndDrbWork) {
  const topo::TopologyGraph topology = topo::builders::make_cluster(
      64, 4, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  trace::GeneratorOptions generator;
  generator.job_count = 400;
  generator.seed = 20261019;
  generator.iterations = 250;
  generator.arrival_rate_per_minute = 1.0 * topology.machine_count();
  const auto jobs = trace::generate_workload(generator, model, topology);

  ShardedOptions options;
  options.shards = 2;
  options.policy = sched::Policy::kTopoAwareP;
  options.driver.record_series = false;
  ShardedDriver driver(topology, model, options);
  const sched::DriverReport report = driver.run(jobs);
  ASSERT_EQ(report.recorder.records().size(), 400u);

  long long scored = 0;
  long long twin_reuses = 0;
  long long bipartitions = 0;
  for (int cell = 0; cell < driver.shard_count(); ++cell) {
    const auto& scheduler = dynamic_cast<const sched::TopoAwareScheduler&>(
        driver.cell_scheduler(cell));
    scored += scheduler.scoring_stats().scored;
    twin_reuses += scheduler.scoring_stats().twin_reuses;
    bipartitions += scheduler.drb_stats().bipartitions;
  }
  const std::uint64_t digest =
      testing_digest::decision_digest(report.recorder);
  // The digest and the candidates weighed (scored + twin_reuses) are those
  // of the per-decision twins the memo replaced, which scored 1151 of them
  // with 1667 bipartitions.
  EXPECT_EQ(digest, 0xab99d462f7595be5ULL)
      << "digest " << testing_digest::hex(digest);
  EXPECT_EQ(scored + twin_reuses, 5476);
  EXPECT_EQ(scored, 819);
  EXPECT_EQ(twin_reuses, 4657);
  EXPECT_EQ(bipartitions, 957);
}

TEST(ShardRouterTest, FilterNeverRejectsAPlaceableShard) {
  // The Filter and the driver's capacity gate share one predicate,
  // ClusterState::may_fit, and may only reject on *necessary* conditions:
  // whenever a policy's scheduler can place a job into a cell's current
  // state, may_fit must hold and the Filter must admit that cell. Checked
  // for all four policies over seeded random occupancy.
  const perf::DlWorkloadModel model{perf::CalibrationParams::paper_minsky()};
  const topo::TopologyGraph cell = topo::builders::make_cluster(
      3, 4, MachineShape::kPower8Minsky);

  for (const sched::Policy policy :
       {sched::Policy::kBestFit, sched::Policy::kFcfs,
        sched::Policy::kTopoAware, sched::Policy::kTopoAwareP}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const std::string label = std::string(sched::to_string(policy)) +
                                " seed " + std::to_string(seed);
      cluster::ClusterState state(cell, model);
      CellSummary summary(cell);
      state.set_allocation_listener(
          [&summary](std::span<const int> gpus, bool allocated) {
            summary.on_allocation(gpus, allocated);
          });
      const auto scheduler = sched::make_scheduler(policy);

      // Seeded random occupancy: keep placing random-size blockers until
      // one fails; min_utility 0 so the scheduler never declines by SLO.
      std::uint64_t rng = seed * 2654435761u + 1;
      const auto next = [&rng](int bound) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<int>((rng >> 33) %
                                static_cast<std::uint64_t>(bound));
      };
      int blocker_id = 1000;
      for (int k = next(10); k >= 0; --k) {
        const int gpus = 1 << next(3);  // 1, 2 or 4
        const JobRequest blocker = perf::make_profiled_dl(
            blocker_id++, 0.0, NeuralNet::kAlexNet, 4, gpus, 0.0, model,
            cell);
        const auto placement = scheduler->place(blocker, state);
        if (!placement) break;
        state.place(blocker, placement->gpus, 0.0, placement->utility);
      }

      // Probes: every job size x constraint combination must obey the
      // implication place-able => may_fit => Filter-admitted.
      const ShardCandidate candidate{&summary, &state, /*queue_depth=*/0};
      int probe_id = 1;
      for (const int gpus : {1, 2, 3, 4}) {
        for (const int shape : {0, 1, 2}) {  // single-node, multi, anti
          JobRequest probe = perf::make_profiled_dl(
              probe_id++, 0.0, NeuralNet::kGoogLeNet, 4, gpus, 0.0, model,
              cell);
          probe.profile.single_node = shape == 0;
          probe.profile.anti_collocate = shape == 2;
          if (!scheduler->place(probe, state).has_value()) continue;
          EXPECT_TRUE(state.may_fit(probe))
              << label << " gpus " << gpus << " shape " << shape
              << ": the capacity gate would skip a placeable job";
          EXPECT_TRUE(filter_admits(probe, candidate, model))
              << label << " gpus " << gpus << " shape " << shape
              << ": Filter rejected a placeable cell";
        }
      }
    }
  }
}

TEST(ShardRouterTest, ScoreBreaksTiesTowardLowestShard) {
  const perf::DlWorkloadModel model{perf::CalibrationParams::paper_minsky()};
  const topo::TopologyGraph a = topo::builders::power8_minsky();
  const topo::TopologyGraph b = topo::builders::power8_minsky();
  const CellSummary sa(a), sb(b);
  const cluster::ClusterState state_a(a, model), state_b(b, model);
  const JobRequest job = perf::make_profiled_dl(
      1, 0.0, NeuralNet::kAlexNet, 4, 2, 0.0, model, a);
  const std::vector<ShardCandidate> candidates = {
      ShardCandidate{&sa, &state_a, 0}, ShardCandidate{&sb, &state_b, 0}};
  const RouteDecision decision = route_job(job, candidates, model);
  EXPECT_EQ(decision.shard, 0);
  EXPECT_EQ(decision.filtered, 0);
  EXPECT_FALSE(decision.exhausted);
}

// --- sharded service snapshot/restore ---------------------------------------

class ShardedServiceTest : public ::testing::Test {
 protected:
  ShardedServiceTest()
      : topology_(topo::builders::make_cluster(
            8, 4, MachineShape::kPower8Minsky)),
        model_(perf::CalibrationParams::paper_minsky()) {}

  svc::ServiceCore make_core(int shards, int shard_threads = 2) {
    svc::ServiceOptions options;
    options.config.max_queue = 256;
    options.config.shard_count = shards;
    options.config.shard_threads = shard_threads;
    options.self_audit = true;
    return svc::ServiceCore(topology_, model_, options);
  }

  static svc::Request make_request(long long id, std::string verb,
                                   json::Value params = {}) {
    svc::Request request;
    request.id = id;
    request.verb = std::move(verb);
    request.params = std::move(params);
    return request;
  }

  svc::Response submit(svc::ServiceCore& core, const JobRequest& job,
                       long long request_id) {
    json::Value params;
    params.set("job", jobgraph::to_manifest(job));
    return core.handle(make_request(request_id, "submit", std::move(params)));
  }

  JobRequest job(int id, double arrival, int gpus) {
    return perf::make_profiled_dl(id, arrival, NeuralNet::kAlexNet, 4, gpus,
                                  gpus > 1 ? 0.5 : 0.3, model_, topology_,
                                  /*iterations=*/600);
  }

  topo::TopologyGraph topology_;
  perf::DlWorkloadModel model_;
};

TEST_F(ShardedServiceTest, SnapshotRestoreReSnapshotsByteIdentically) {
  svc::ServiceCore original = make_core(/*shards=*/4);
  for (int i = 1; i <= 12; ++i) {
    ASSERT_TRUE(submit(original, job(i, 1.5 * i, 1 + (i % 3)), i).ok);
  }
  // Mid-flight: some running across cells, some waiting, some pending.
  json::Value advance_params;
  advance_params.set("to", 9.0);
  ASSERT_TRUE(
      original.handle(make_request(50, "advance", advance_params)).ok);

  const svc::Response snap = original.handle(make_request(51, "snapshot"));
  ASSERT_TRUE(snap.ok) << snap.message;
  const json::Value snapshot = snap.result.at("snapshot");
  ASSERT_TRUE(svc::validate_snapshot_json(snapshot));

  svc::ServiceCore restored = make_core(/*shards=*/4);
  const auto status = restored.restore_json(snapshot);
  ASSERT_TRUE(status) << status.error().message;
  ASSERT_TRUE(restored.driver().validate());
  EXPECT_EQ(restored.driver().shard_count(), 4);

  EXPECT_EQ(json::write(restored.snapshot_json(), {.indent = 2}),
            json::write(snapshot, {.indent = 2}));

  // The continuation matches the uninterrupted run verb-for-verb.
  for (svc::ServiceCore* core : {&original, &restored}) {
    ASSERT_TRUE(core->handle(make_request(60, "drain")).ok);
  }
  json::Value detail;
  detail.set("detail", true);
  EXPECT_EQ(encode(original.handle(make_request(61, "list", detail))),
            encode(restored.handle(make_request(61, "list", detail))));
  for (int i = 1; i <= 12; ++i) {
    json::Value params;
    params.set("id", i);
    EXPECT_EQ(encode(original.handle(make_request(70 + i, "status", params))),
              encode(restored.handle(make_request(70 + i, "status", params))))
        << "job " << i << " diverged after restore";
  }
}

TEST_F(ShardedServiceTest, ShardsVerbReportsEveryCell) {
  svc::ServiceCore core = make_core(/*shards=*/4);
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(submit(core, job(i, 0.0, 2), i).ok);
  }
  json::Value advance_params;
  advance_params.set("to", 1.0);
  ASSERT_TRUE(core.handle(make_request(20, "advance", advance_params)).ok);

  const svc::Response response = core.handle(make_request(21, "shards"));
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_EQ(response.result.at("shards").as_int(), 4);
  const auto& cells = response.result.at("cells").as_array();
  ASSERT_EQ(cells.size(), 4u);
  long long machines = 0;
  long long gpus = 0;
  long long routed = 0;
  for (const json::Value& cell : cells) {
    machines += cell.at("machines").as_int();
    gpus += cell.at("gpus").as_int();
    routed += cell.at("routed").as_int();
  }
  EXPECT_EQ(machines, 8);
  EXPECT_EQ(gpus, topology_.gpu_count());
  EXPECT_EQ(routed, 6);
  EXPECT_EQ(response.result.at("router").at("routed").as_int(), 6);
}

}  // namespace
}  // namespace gts::shard
