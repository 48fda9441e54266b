// Seeded property suite over randomly generated topologies and job
// graphs: every structure the pipeline produces must satisfy its
// invariants regardless of the random configuration. Each seeded instance
// runs ~200 random cases per property, so the suite covers a few thousand
// distinct (topology, job graph, availability) combinations.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "check/audit.hpp"
#include "cluster/state.hpp"
#include "jobgraph/jobgraph.hpp"
#include "partition/drb.hpp"
#include "partition/fm.hpp"
#include "perf/model.hpp"
#include "sched/scheduler.hpp"
#include "sched/topo_aware.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace gts {
namespace {

using topo::builders::MachineShape;

constexpr int kSeeds = 8;
constexpr int kCasesPerSeed = 200;

MachineShape random_shape(util::Rng& rng) {
  switch (rng.uniform_int(3)) {
    case 0: return MachineShape::kPower8Minsky;
    case 1: return MachineShape::kPower8Pcie;
    default: return MachineShape::kDgx1;
  }
}

topo::TopologyGraph random_cluster(util::Rng& rng, int max_machines = 3) {
  const int machines =
      1 + static_cast<int>(rng.uniform_int(
              static_cast<std::uint64_t>(max_machines)));
  if (machines == 1) {
    // Single machines exercise the bare builders too.
    switch (rng.uniform_int(3)) {
      case 0: return topo::builders::power8_minsky();
      case 1: return topo::builders::power8_pcie();
      default: return topo::builders::dgx1();
    }
  }
  if (rng.uniform() < 0.3) {
    std::vector<MachineShape> shapes;
    for (int m = 0; m < machines; ++m) shapes.push_back(random_shape(rng));
    return topo::builders::mixed_cluster(shapes);
  }
  return topo::builders::cluster(machines, random_shape(rng));
}

jobgraph::JobGraph random_job_graph(util::Rng& rng, int max_tasks = 6) {
  const int tasks = 1 + static_cast<int>(rng.uniform_int(
                            static_cast<std::uint64_t>(max_tasks)));
  const double weight = rng.uniform(0.5, 4.0);
  switch (rng.uniform_int(3)) {
    case 0: return jobgraph::JobGraph::all_to_all(tasks, weight);
    case 1: return jobgraph::JobGraph::ring(tasks, weight);
    default: {
      // Random sparse graph: each pair connected with probability 0.5.
      jobgraph::JobGraph graph(tasks);
      for (int a = 0; a < tasks; ++a) {
        for (int b = a + 1; b < tasks; ++b) {
          if (rng.uniform() < 0.5) graph.add_edge(a, b, rng.uniform(0.1, 5.0));
        }
      }
      return graph;
    }
  }
}

class InvariantTest : public ::testing::TestWithParam<int> {
 protected:
  util::Rng rng_{util::Rng::for_stream(
      static_cast<std::uint64_t>(GetParam()), /*stream=*/0xABCD)};
};

// Every random topology and job graph passes its deep validator.
TEST_P(InvariantTest, GeneratedStructuresValidate) {
  for (int i = 0; i < kCasesPerSeed; ++i) {
    const topo::TopologyGraph topology = random_cluster(rng_);
    const util::Status topo_status = check::validate(topology);
    EXPECT_TRUE(topo_status.is_ok()) << topo_status.error().message;

    const jobgraph::JobGraph graph = random_job_graph(rng_);
    const util::Status graph_status = check::validate(graph);
    EXPECT_TRUE(graph_status.is_ok()) << graph_status.error().message;
  }
}

// FM keeps both sides within the requested balance envelope and never
// produces a cut worse than the initial one.
TEST_P(InvariantTest, FmBipartitionsStayBalanced) {
  for (int i = 0; i < kCasesPerSeed; ++i) {
    const int n = 4 + static_cast<int>(rng_.uniform_int(12));
    partition::FmGraph graph;
    graph.vertex_count = n;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng_.uniform() < 0.4) {
          graph.edges.push_back({a, b, rng_.uniform(0.1, 5.0)});
        }
      }
    }
    std::vector<int> initial(static_cast<size_t>(n));
    for (auto& side : initial) side = static_cast<int>(rng_.uniform_int(2));
    if (std::count(initial.begin(), initial.end(), 0) == 0) initial[0] = 0;
    if (std::count(initial.begin(), initial.end(), 1) == 0) initial[0] = 1;

    partition::FmOptions options;
    options.min_side = 1;
    options.max_side_fraction = rng_.uniform(0.5, 0.75);

    // FM's documented balance envelope: the requested fraction with a
    // one-vertex slack (so moves exist from an exactly-balanced start),
    // never eating into min_side. An initial partition already outside the
    // envelope can only shrink its big side (over-limit moves are barred).
    long long allowed =
        static_cast<long long>(options.max_side_fraction * n);
    allowed = std::max(allowed, static_cast<long long>(n) / 2 + 1);
    allowed = std::min(allowed, static_cast<long long>(n - options.min_side));
    const auto initial0 = std::count(initial.begin(), initial.end(), 0);
    const long long initial_max = std::max<long long>(initial0, n - initial0);

    const double before = partition::cut_weight(graph, initial);
    const partition::FmResult result =
        partition::fm_bipartition(graph, initial, options);

    EXPECT_LE(result.cut_weight, before + 1e-9) << "seed case " << i;
    const long long side0 =
        std::count(result.side.begin(), result.side.end(), 0);
    const long long side1 = n - side0;
    const long long limit = std::max(allowed, initial_max);
    EXPECT_GE(side0, options.min_side) << "seed case " << i;
    EXPECT_GE(side1, options.min_side) << "seed case " << i;
    EXPECT_LE(side0, limit) << "seed case " << i;
    EXPECT_LE(side1, limit) << "seed case " << i;
  }
}

/// Pack-preferring callbacks, as the schedulers use in spirit.
class PackingCallbacks : public partition::DrbCallbacks {
 public:
  double task_utility(int, int side,
                      const partition::BipartitionView& view) const override {
    const std::vector<int>& gpus = side == 0 ? view.gpus0 : view.gpus1;
    const std::vector<int>& tasks = side == 0 ? view.tasks0 : view.tasks1;
    if (gpus.empty()) return 0.0;
    return static_cast<double>(tasks.size()) * 10.0 +
           static_cast<double>(gpus.size());
  }
};

// drb_map only ever hands out GPUs from the available set, each at most
// once, and completes whenever it claims to.
TEST_P(InvariantTest, DrbAssignsOnlyAvailableGpus) {
  const PackingCallbacks callbacks;
  for (int i = 0; i < kCasesPerSeed; ++i) {
    const topo::TopologyGraph topology = random_cluster(rng_);
    std::vector<int> available;
    for (int gpu = 0; gpu < topology.gpu_count(); ++gpu) {
      if (rng_.uniform() < 0.6) available.push_back(gpu);
    }
    const jobgraph::JobGraph job = random_job_graph(rng_);
    partition::DrbOptions options;
    switch (rng_.uniform_int(3)) {
      case 0: options.span = partition::SpanMode::kPreferPack; break;
      case 1: options.span = partition::SpanMode::kSingleNode; break;
      default: options.span = partition::SpanMode::kAntiCollocate; break;
    }
    const partition::DrbResult result =
        partition::drb_map(job, available, topology, callbacks, options);

    if (static_cast<int>(available.size()) < job.task_count()) {
      EXPECT_FALSE(result.complete) << "seed case " << i;
    }
    std::set<int> used;
    for (const int gpu : result.assignment) {
      if (gpu < 0) continue;
      EXPECT_TRUE(std::find(available.begin(), available.end(), gpu) !=
                  available.end())
          << "seed case " << i << ": GPU " << gpu << " not available";
      EXPECT_TRUE(used.insert(gpu).second)
          << "seed case " << i << ": GPU " << gpu << " assigned twice";
    }
    if (result.complete) {
      EXPECT_EQ(used.size(), static_cast<size_t>(job.task_count()))
          << "seed case " << i;
      if (options.span == partition::SpanMode::kSingleNode) {
        std::set<int> machines;
        for (const int gpu : result.gpus()) {
          machines.insert(topology.machine_of_gpu(gpu));
        }
        EXPECT_EQ(machines.size(), 1u) << "seed case " << i;
      }
      if (options.span == partition::SpanMode::kAntiCollocate) {
        std::set<int> machines;
        for (const int gpu : result.gpus()) {
          machines.insert(topology.machine_of_gpu(gpu));
        }
        EXPECT_EQ(machines.size(), static_cast<size_t>(job.task_count()))
            << "seed case " << i;
      }
    }
  }
}

// Every placement drb_evaluate accepts on an evolving cluster passes the
// check subsystem's full feasibility audit.
TEST_P(InvariantTest, AcceptedPlacementsPassAudit) {
  // A smaller case count: each case is a whole multi-job episode.
  const int episodes = kCasesPerSeed / 10;
  for (int episode = 0; episode < episodes; ++episode) {
    const topo::TopologyGraph topology = random_cluster(rng_);
    const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
    cluster::ClusterState state(topology, model);
    const sched::UtilityModel utility{};

    trace::GeneratorOptions generator;
    generator.job_count = 10;
    generator.seed = rng_.next();
    const std::vector<jobgraph::JobRequest> jobs =
        trace::generate_workload(generator, model, topology);

    double now = 0.0;
    for (const jobgraph::JobRequest& request : jobs) {
      const std::vector<int> available = sched::filter_hosts(request, state);
      if (available.empty()) continue;
      const std::optional<sched::Placement> placement =
          sched::drb_evaluate(request, available, state, utility);
      if (!placement) continue;
      const util::Status audit =
          check::audit_placement(request, placement->gpus, state);
      EXPECT_TRUE(audit.is_ok())
          << "episode " << episode << " job " << request.id << ": "
          << audit.error().message;
      if (!audit.is_ok()) continue;
      now += 1.0;
      state.place(request, placement->gpus, now, placement->utility);
      // Randomly retire a running job so availability keeps shifting.
      if (!state.running_jobs().empty() && rng_.uniform() < 0.4) {
        const int victim = state.running_jobs().begin()->first;
        state.remove(victim, now);
      }
    }
    const util::Status final_state = check::validate(state);
    EXPECT_TRUE(final_state.is_ok()) << final_state.error().message;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeded, InvariantTest, ::testing::Range(0, kSeeds));

}  // namespace
}  // namespace gts
