// Committed-digest suite for the decision-path performance work. Each
// hot-path rewrite was proven byte-identical to the implementation it
// replaced; those proofs are now pinned as digests recorded while the old
// implementations still ran next to them (tests/decision_digest.hpp):
//
//   * bucket-list FM on 200 random graphs x 8 seeds and on degenerate
//     shapes: one digest over every FmResult (sides, passes, cut bits),
//     with one FmScratch arena reused across all calls, plus concurrent
//     calls checked against single-threaded results;
//   * TaskUtility's per-side aggregates == the recompute fallback used
//     for GPU vectors begin_bipartition did not mark, to 1e-9, across
//     random bipartitions of a live cluster;
//   * decisions and scoring counts on the seeded 500-job regression
//     trace, for both postponement modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "cluster/recorder.hpp"
#include "decision_digest.hpp"
#include "partition/drb.hpp"
#include "partition/fm.hpp"
#include "perf/model.hpp"
#include "perf/profile.hpp"
#include "sched/driver.hpp"
#include "sched/task_utility.hpp"
#include "sched/topo_aware.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace gts {
namespace {

using topo::builders::MachineShape;

// --- bucket-list FM -----------------------------------------------------

partition::FmGraph random_fm_graph(int vertices, double density,
                                   util::Rng& rng) {
  partition::FmGraph graph;
  graph.vertex_count = vertices;
  for (int i = 0; i < vertices; ++i) {
    for (int j = i + 1; j < vertices; ++j) {
      if (rng.uniform() < density) {
        graph.edges.push_back({i, j, rng.uniform(0.0, 5.0)});
      }
    }
  }
  return graph;
}

std::vector<int> random_initial(int vertices, util::Rng& rng) {
  // Alternating split, shuffled: both sides always non-empty for
  // vertices >= 2, with seed-dependent membership.
  std::vector<int> initial(static_cast<size_t>(vertices));
  for (int v = 0; v < vertices; ++v) {
    initial[static_cast<size_t>(v)] = v % 2;
  }
  for (int v = vertices - 1; v > 0; --v) {
    const int swap_with = static_cast<int>(rng.uniform_int(v + 1));
    std::swap(initial[static_cast<size_t>(v)],
              initial[static_cast<size_t>(swap_with)]);
  }
  return initial;
}

using testing_digest::hex;

// Recorded while fm_bipartition still ran next to the original
// std::set<(-gain, vertex)> implementation and matched it side for side.
constexpr std::uint64_t kFmRandomGraphsDigest = 0xd8bf411081969aadULL;
constexpr std::uint64_t kFmDegenerateDigest = 0x2af8f7b7c06ef677ULL;

// 200 random graphs x 8 seeds, with balance and min-side constraints on
// a share of them, through a single scratch arena reused across all 1600
// calls.
TEST(FmBucketListTest, RandomGraphsMatchCommittedDigest) {
  partition::FmScratch scratch;
  testing_digest::Fnv1a fnv;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    for (int graph_index = 0; graph_index < 200; ++graph_index) {
      const int vertices = 2 + static_cast<int>(rng.uniform_int(30));
      const double density = rng.uniform(0.1, 1.0);
      const partition::FmGraph graph =
          random_fm_graph(vertices, density, rng);
      const std::vector<int> initial = random_initial(vertices, rng);

      partition::FmOptions options;
      if (graph_index % 3 == 1) options.max_side_fraction = 0.75;
      if (graph_index % 5 == 2) options.min_side = 2;

      testing_digest::mix_fm_result(
          fnv, partition::fm_bipartition(graph, initial, options, &scratch));
    }
  }
  EXPECT_EQ(fnv.value(), kFmRandomGraphsDigest) << hex(fnv.value());
}

// Degenerate shapes: empty edge lists, two vertices, all-zero weights,
// equal-gain ties everywhere (uniform weights on a complete graph), and a
// single vertex per side under min_side.
TEST(FmBucketListTest, DegenerateGraphsMatchCommittedDigest) {
  partition::FmScratch scratch;

  partition::FmGraph no_edges;
  no_edges.vertex_count = 6;
  partition::FmGraph pair;
  pair.vertex_count = 2;
  pair.edges.push_back({0, 1, 3.0});
  partition::FmGraph zero_weights;
  zero_weights.vertex_count = 5;
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) zero_weights.edges.push_back({i, j, 0.0});
  }
  partition::FmGraph uniform;  // every move gain ties with every other
  uniform.vertex_count = 8;
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) uniform.edges.push_back({i, j, 1.0});
  }

  testing_digest::Fnv1a fnv;
  for (const partition::FmGraph* graph :
       {&no_edges, &pair, &zero_weights, &uniform}) {
    std::vector<int> initial(static_cast<size_t>(graph->vertex_count));
    for (int v = 0; v < graph->vertex_count; ++v) {
      initial[static_cast<size_t>(v)] = v % 2;
    }
    for (const partition::FmOptions& options :
         {partition::FmOptions{}, partition::FmOptions{8, 1, 0.5}}) {
      testing_digest::mix_fm_result(
          fnv, partition::fm_bipartition(*graph, initial, options, &scratch));
    }
  }
  EXPECT_EQ(fnv.value(), kFmDegenerateDigest) << hex(fnv.value());
}

// The race surface TSan watches (CI bench-smoke job): concurrent FM calls
// must be independent, both with explicit per-thread scratch arenas and
// with the nullptr thread-local fallback. Each thread's inputs and
// results are computed single-threaded up front.
TEST(FmBucketListTest, ConcurrentScratchReuseIsRaceFree) {
  constexpr int kThreads = 4;
  constexpr int kGraphsPerThread = 40;
  struct Case {
    partition::FmGraph graph;
    std::vector<int> initial;
    partition::FmResult expected;
  };
  std::vector<std::vector<Case>> cases(kThreads);
  for (int thread_index = 0; thread_index < kThreads; ++thread_index) {
    util::Rng rng(1000 + static_cast<std::uint64_t>(thread_index));
    for (int i = 0; i < kGraphsPerThread; ++i) {
      Case item;
      const int vertices = 2 + static_cast<int>(rng.uniform_int(24));
      item.graph = random_fm_graph(vertices, 0.5, rng);
      item.initial = random_initial(vertices, rng);
      item.expected = partition::fm_bipartition(item.graph, item.initial);
      cases[static_cast<size_t>(thread_index)].push_back(std::move(item));
    }
  }

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int thread_index = 0; thread_index < kThreads; ++thread_index) {
    workers.emplace_back([&mine = cases[static_cast<size_t>(thread_index)]] {
      partition::FmScratch scratch;
      for (size_t i = 0; i < mine.size(); ++i) {
        // Alternate explicit arena reuse and the thread-local fallback.
        partition::FmScratch* arena = i % 2 == 0 ? &scratch : nullptr;
        const partition::FmResult result = partition::fm_bipartition(
            mine[i].graph, mine[i].initial, {}, arena);
        ASSERT_EQ(result.side, mine[i].expected.side);
        ASSERT_EQ(result.cut_weight, mine[i].expected.cut_weight);
        ASSERT_EQ(result.passes, mine[i].expected.passes);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

// --- TaskUtility side aggregates vs. the recompute fallback --------------

/// A cluster with enough running jobs that interference and fragmentation
/// terms are non-trivial for later candidates.
struct LiveCluster {
  topo::TopologyGraph topology;
  perf::DlWorkloadModel model;
  cluster::ClusterState state;
  std::vector<jobgraph::JobRequest> requests;

  LiveCluster()
      : topology(topo::builders::cluster(4, MachineShape::kPower8Minsky)),
        model(perf::CalibrationParams::paper_minsky()),
        state(topology, model) {
    trace::GeneratorOptions options;
    options.job_count = 24;
    options.seed = 20260806;
    requests = trace::generate_workload(options, model, topology);
    sched::TopoAwareScheduler scheduler({}, /*postpone=*/false);
    for (const jobgraph::JobRequest& request : requests) {
      // Keep at least 8 GPUs free so the bipartition tests have room.
      if (state.free_gpu_count() <= 8 + request.num_gpus) continue;
      const auto placement = scheduler.place(request, state);
      if (!placement) continue;
      state.place(request, placement->gpus, /*now=*/0.0, placement->utility);
    }
    EXPECT_GT(state.running_job_count(), 0);
  }
};

TEST(TaskUtilityIncrementalTest, MatchesScratchRecomputeOnRandomBipartitions) {
  LiveCluster cluster;
  const sched::UtilityModel model{sched::UtilityWeights{}};
  util::Rng rng(77);

  const std::vector<int> free = cluster.state.free_gpus();
  ASSERT_GE(free.size(), 4u);

  for (int trial = 0; trial < 50; ++trial) {
    const jobgraph::JobRequest& request =
        cluster.requests[static_cast<size_t>(trial) %
                         cluster.requests.size()];
    const int task_count = request.comm_graph.task_count();

    // A random bipartition of a random subset of the free GPUs.
    std::vector<int> pool = free;
    for (size_t i = pool.size() - 1; i > 0; --i) {
      std::swap(pool[i], pool[rng.uniform_int(i + 1)]);
    }
    const size_t use = 2 + rng.uniform_int(pool.size() - 1);
    const size_t split = 1 + rng.uniform_int(use - 1);
    std::vector<int> gpus0(pool.begin(), pool.begin() + split);
    std::vector<int> gpus1(pool.begin() + split, pool.begin() + use);
    std::sort(gpus0.begin(), gpus0.end());
    std::sort(gpus1.begin(), gpus1.end());

    // Route a random prefix of the tasks to alternating sides.
    std::vector<int> tasks0;
    std::vector<int> tasks1;
    const int routed = static_cast<int>(rng.uniform_int(task_count));
    for (int task = 0; task < routed; ++task) {
      (task % 2 == 0 ? tasks0 : tasks1).push_back(task);
    }
    const partition::BipartitionView view{gpus0, gpus1, tasks0, tasks1};

    // `scratch` never sees begin_bipartition, so every call takes the
    // recompute-from-scratch fallback for unmarked GPU vectors.
    const sched::TaskUtility incremental(request, cluster.state, model);
    const sched::TaskUtility scratch(request, cluster.state, model);
    incremental.begin_bipartition(gpus0, gpus1);

    for (int task = routed; task < task_count; ++task) {
      for (const int side : {0, 1}) {
        const double fast = incremental.task_utility(task, side, view);
        const double slow = scratch.task_utility(task, side, view);
        EXPECT_NEAR(fast, slow, 1e-9)
            << "trial " << trial << " task " << task << " side " << side;
      }
    }
  }
}

// Consecutive bipartitions with swapped and reused side vectors: the
// per-side caches must track the begin_bipartition marks, never serving
// aggregates computed for a previous pair of GPU sets.
TEST(TaskUtilityIncrementalTest, CacheInvalidatesAcrossBipartitions) {
  LiveCluster cluster;
  const sched::UtilityModel model{sched::UtilityWeights{}};
  const jobgraph::JobRequest& request = cluster.requests.front();
  const int task_count = request.comm_graph.task_count();
  ASSERT_GE(task_count, 2);

  const std::vector<int> free = cluster.state.free_gpus();
  ASSERT_GE(free.size(), 6u);
  std::vector<int> a(free.begin(), free.begin() + 2);
  std::vector<int> b(free.begin() + 2, free.begin() + 4);
  std::vector<int> c(free.begin() + 4, free.begin() + 6);
  const std::vector<int> no_tasks;
  const partition::BipartitionView ab{a, b, no_tasks, no_tasks};
  const partition::BipartitionView ba{b, a, no_tasks, no_tasks};
  const partition::BipartitionView ac{a, c, no_tasks, no_tasks};

  const sched::TaskUtility incremental(request, cluster.state, model);
  const sched::TaskUtility scratch(request, cluster.state, model);  // unmarked

  for (const auto* step :
       {&ab, &ba, &ac, &ab, &ab, &ac, &ba}) {
    incremental.begin_bipartition(step->gpus0, step->gpus1);
    for (int task = 0; task < task_count; ++task) {
      for (const int side : {0, 1}) {
        EXPECT_NEAR(incremental.task_utility(task, side, *step),
                    scratch.task_utility(task, side, *step), 1e-9);
      }
    }
  }
}

// --- seeded trace -------------------------------------------------------

std::vector<jobgraph::JobRequest> seeded_trace(
    const perf::DlWorkloadModel& model, const topo::TopologyGraph& topology,
    int jobs, std::uint64_t seed) {
  trace::GeneratorOptions options;
  options.job_count = jobs;
  options.seed = seed;
  return trace::generate_workload(options, model, topology);
}

sched::DriverReport run_trace(const topo::TopologyGraph& topology,
                              const perf::DlWorkloadModel& model,
                              sched::TopoAwareScheduler& scheduler,
                              const std::vector<jobgraph::JobRequest>& jobs) {
  sched::Driver driver(topology, model, scheduler);
  return driver.run(jobs);
}

struct PinnedTraceRun {
  bool postpone;
  std::uint64_t digest;
  long long candidates;  // scored + twin_reuses
  long long scored;
  long long twin_reuses;
};

// Decisions and DRB work on the seeded 500-job regression trace, for both
// postponement modes. The digests date from the byte-string placement-cache
// key. The scoring counts were re-pinned when the empty-machine memo
// (DESIGN.md §17.1) replaced per-decision twins; the candidates weighed,
// scored + twin_reuses, are those the cache-off path weighed before.
TEST(SeededTraceTest, DecisionsAndScoringMatchCommittedPins) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(5, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = seeded_trace(model, topology, 500, /*seed=*/20260806);

  const PinnedTraceRun pinned[] = {
      {false, 0x970e00271938deb6ULL, 518, 419, 99},
      {true, 0xa5767ea914ff0e6cULL, 567, 468, 99},
  };
  for (const PinnedTraceRun& pin : pinned) {
    sched::TopoAwareScheduler scheduler({}, pin.postpone);
    const sched::DriverReport report =
        run_trace(topology, model, scheduler, jobs);
    ASSERT_EQ(report.recorder.records().size(), 500u);
    const std::uint64_t digest =
        testing_digest::decision_digest(report.recorder);
    EXPECT_EQ(digest, pin.digest)
        << "postpone=" << pin.postpone << " digest " << hex(digest);
    const sched::ScoringStats scoring = scheduler.scoring_stats();
    EXPECT_EQ(scoring.scored + scoring.twin_reuses, pin.candidates)
        << "postpone=" << pin.postpone;
    EXPECT_EQ(scoring.scored, pin.scored) << "postpone=" << pin.postpone;
    EXPECT_EQ(scoring.twin_reuses, pin.twin_reuses)
        << "postpone=" << pin.postpone;
  }
}

}  // namespace
}  // namespace gts
