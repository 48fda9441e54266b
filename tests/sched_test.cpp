#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "cluster/state.hpp"
#include "obs/explain.hpp"
#include "obs/obs.hpp"
#include "perf/profile.hpp"
#include "sched/greedy.hpp"
#include "sched/scheduler.hpp"
#include "sched/topo_aware.hpp"
#include "topo/builders.hpp"

namespace gts::sched {
namespace {

using jobgraph::JobRequest;
using jobgraph::NeuralNet;
using topo::builders::MachineShape;

class SchedTest : public ::testing::Test {
 protected:
  topo::TopologyGraph topo_ = topo::builders::power8_minsky();
  perf::DlWorkloadModel model_{perf::CalibrationParams::paper_minsky()};
  cluster::ClusterState state_{topo_, model_};

  JobRequest job(int id, int gpus, int batch = 1, double min_utility = 0.5) {
    return perf::make_profiled_dl(id, 0.0, NeuralNet::kAlexNet, batch, gpus,
                                  min_utility, model_, topo_, 700);
  }
};

// ---------------------------------------------------------------- FCFS ----

TEST_F(SchedTest, FcfsTakesLowestFreeIds) {
  FcfsScheduler fcfs;
  const auto placement = fcfs.place(job(1, 2), state_);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->gpus, (std::vector<int>{0, 1}));
  EXPECT_TRUE(fcfs.blocking_queue());
}

TEST_F(SchedTest, FcfsSkipsBusyGpus) {
  state_.place(job(9, 1), {0}, 0.0);
  FcfsScheduler fcfs;
  const auto placement = fcfs.place(job(1, 2), state_);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->gpus, (std::vector<int>{1, 2}));
}

TEST_F(SchedTest, FcfsDeclinesWhenInsufficient) {
  state_.place(job(9, 2), {0, 1}, 0.0);
  state_.place(job(8, 1), {2}, 0.0);
  FcfsScheduler fcfs;
  EXPECT_FALSE(fcfs.place(job(1, 2), state_).has_value());
}

// ------------------------------------------------------------- BestFit ----

TEST_F(SchedTest, BestFitPrefersTightestMachine) {
  const topo::TopologyGraph cluster =
      topo::builders::cluster(2, MachineShape::kPower8Minsky);
  cluster::ClusterState state(cluster, model_);
  // Machine 0 has 1 GPU free, machine 1 fully free.
  state.place(perf::make_profiled_dl(9, 0.0, NeuralNet::kAlexNet, 1, 3, 0.0,
                                     model_, cluster, 700),
              {0, 1, 2}, 0.0);
  BestFitScheduler bf;
  const auto placement = bf.place(
      perf::make_profiled_dl(1, 0.0, NeuralNet::kAlexNet, 1, 1, 0.0, model_,
                             cluster, 700),
      state);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->gpus, (std::vector<int>{3}));  // the tight machine
}

TEST_F(SchedTest, BestFitPacksUsedSocketsFirst) {
  state_.place(job(9, 1), {0}, 0.0);  // socket 0 half-used
  BestFitScheduler bf;
  const auto placement = bf.place(job(1, 1), state_);
  ASSERT_TRUE(placement.has_value());
  // Socket 0 (fewest free) is chosen over empty socket 1.
  EXPECT_EQ(placement->gpus, (std::vector<int>{1}));
}

// ------------------------------------------------------- filter_hosts -----

TEST_F(SchedTest, FilterHostsSingleNode) {
  const topo::TopologyGraph cluster =
      topo::builders::cluster(2, MachineShape::kPower8Minsky);
  cluster::ClusterState state(cluster, model_);
  // Machine 0: 1 free; machine 1: 4 free.
  state.place(perf::make_profiled_dl(9, 0.0, NeuralNet::kAlexNet, 1, 3, 0.0,
                                     model_, cluster, 700),
              {0, 1, 2}, 0.0);
  JobRequest j = perf::make_profiled_dl(1, 0.0, NeuralNet::kAlexNet, 1, 2,
                                        0.5, model_, cluster, 700);
  const std::vector<int> hosts = filter_hosts(j, state);
  // Only machine 1 can host 2 GPUs.
  EXPECT_EQ(hosts, (std::vector<int>{4, 5, 6, 7}));
}

TEST_F(SchedTest, FilterHostsAntiCollocate) {
  const topo::TopologyGraph cluster =
      topo::builders::cluster(2, MachineShape::kPower8Minsky);
  cluster::ClusterState state(cluster, model_);
  JobRequest j = perf::make_profiled_dl(1, 0.0, NeuralNet::kAlexNet, 1, 3,
                                        0.5, model_, cluster, 700);
  j.profile.anti_collocate = true;
  // 3 tasks on 2 machines: impossible.
  EXPECT_TRUE(filter_hosts(j, state).empty());
  j.num_gpus = 2;
  j.comm_graph = jobgraph::JobGraph::all_to_all(2, 4.0);
  EXPECT_EQ(filter_hosts(j, state).size(), 8u);
}

TEST_F(SchedTest, GreedyPoliciesSpreadAntiCollocatedJobs) {
  const topo::TopologyGraph cluster =
      topo::builders::cluster(3, MachineShape::kPower8Minsky);
  cluster::ClusterState state(cluster, model_);
  // Machine 1 keeps one free GPU (7); machines 0 and 2 are empty.
  state.place(perf::make_profiled_dl(9, 0.0, NeuralNet::kAlexNet, 1, 3, 0.0,
                                     model_, cluster, 700),
              {4, 5, 6}, 0.0);
  JobRequest spread = perf::make_profiled_dl(1, 0.0, NeuralNet::kAlexNet, 1,
                                             3, 0.5, model_, cluster, 700);
  spread.profile.single_node = false;
  spread.profile.anti_collocate = true;

  FcfsScheduler fcfs;
  BestFitScheduler best_fit;
  const auto first = fcfs.place(spread, state);
  ASSERT_TRUE(first.has_value());
  // Lowest-id machines, lowest free GPU of each.
  EXPECT_EQ(first->gpus, (std::vector<int>{0, 7, 8}));
  const auto tightest = best_fit.place(spread, state);
  ASSERT_TRUE(tightest.has_value());
  // Tightest machine first, then by machine id.
  EXPECT_EQ(tightest->gpus, (std::vector<int>{7, 0, 8}));
  for (const auto* placement : {&first, &tightest}) {
    const util::Status audit =
        check::audit_placement(spread, (*placement)->gpus, state);
    EXPECT_TRUE(audit.is_ok()) << audit.error().message;
  }

  // Four tasks need four machines.
  JobRequest wide = spread;
  wide.num_gpus = 4;
  wide.comm_graph = jobgraph::JobGraph::all_to_all(4, 4.0);
  EXPECT_FALSE(fcfs.place(wide, state).has_value());
  EXPECT_FALSE(best_fit.place(wide, state).has_value());
  EXPECT_FALSE(state.may_fit(wide));
}

// ---------------------------------------------------------- TOPO-AWARE ----

TEST_F(SchedTest, TopoAwarePacksCommunicatingJob) {
  TopoAwareScheduler topo_aware({}, /*postpone=*/false);
  const auto placement = topo_aware.place(job(1, 2, 1), state_);
  ASSERT_TRUE(placement.has_value());
  EXPECT_TRUE(topo_.same_socket(placement->gpus[0], placement->gpus[1]));
  EXPECT_GE(placement->utility, 0.5);
  EXPECT_TRUE(placement->satisfied);
}

TEST_F(SchedTest, TopoAwareAvoidsInterferingSocketForSingleGpuJob) {
  // Paper, Section 5.2.2: TOPO-AWARE-P places Job 1 on a different socket
  // than Job 0 because the profile predicts interference.
  state_.place(job(0, 1, 1), {0}, 0.0);
  TopoAwareScheduler topo_aware({}, /*postpone=*/true);
  const auto placement = topo_aware.place(
      perf::make_profiled_dl(1, 0.0, NeuralNet::kGoogLeNet, 4, 1, 0.3,
                             model_, topo_, 700),
      state_);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(topo_.socket_of_gpu(placement->gpus[0]), 1)
      << "expected placement away from Job 0's socket";
}

TEST_F(SchedTest, TopoAwarePlacesSpreadWhenNothingElseFree) {
  // Only one GPU free per socket: TOPO-AWARE (non-postponing) places the
  // communicating job across sockets anyway.
  state_.place(job(8, 1), {1}, 0.0);
  state_.place(job(9, 1), {3}, 0.0);
  TopoAwareScheduler topo_aware({}, /*postpone=*/false);
  const auto placement = topo_aware.place(job(1, 2, 4), state_);
  ASSERT_TRUE(placement.has_value());
  EXPECT_FALSE(topo_.same_socket(placement->gpus[0], placement->gpus[1]));
  EXPECT_FALSE(placement->satisfied);  // below the 0.5 threshold
}

TEST_F(SchedTest, TopoAwarePPostponesUnsatisfiedPlacement) {
  state_.place(job(8, 1), {1}, 0.0);
  state_.place(job(9, 1), {3}, 0.0);
  TopoAwareScheduler topo_aware_p({}, /*postpone=*/true);
  EXPECT_FALSE(topo_aware_p.place(job(1, 2, 4), state_).has_value());
}

TEST_F(SchedTest, TopoAwarePPlacesOnceSocketFreesUp) {
  state_.place(job(9, 1), {3}, 0.0);  // socket 1 half-used; socket 0 free
  TopoAwareScheduler topo_aware_p({}, /*postpone=*/true);
  const auto placement = topo_aware_p.place(job(1, 2, 4), state_);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(topo_.socket_of_gpu(placement->gpus[0]), 0);
  EXPECT_EQ(topo_.socket_of_gpu(placement->gpus[1]), 0);
}

TEST_F(SchedTest, TopoAwareDeclinesWhenNoCapacity) {
  state_.place(job(9, 4), {0, 1, 2, 3}, 0.0);
  TopoAwareScheduler topo_aware({}, /*postpone=*/false);
  EXPECT_FALSE(topo_aware.place(job(1, 1), state_).has_value());
}

TEST_F(SchedTest, TopoAwareStatsAccumulate) {
  TopoAwareScheduler topo_aware({}, /*postpone=*/false);
  (void)topo_aware.place(job(1, 2), state_);
  EXPECT_GT(topo_aware.drb_stats().bipartitions, 0);
}

// --------------------------------------- Section 4.3 bandwidth constraint --

TEST_F(SchedTest, ProfiledJobsCarryBandwidthDemand) {
  const JobRequest j = job(1, 2, 1);
  // A tiny-batch 2-GPU AlexNet pushes ~27 GB/s of link traffic.
  EXPECT_GT(j.profile.host_bw_demand_gbps, 10.0);
  EXPECT_LT(j.profile.host_bw_demand_gbps, 60.0);
}

TEST_F(SchedTest, FilterHostsEnforcesBandwidthCapacity) {
  // A running job consuming nearly all host bandwidth blocks further
  // high-demand jobs even though GPUs are free (t_bw <= p_bw).
  JobRequest hog = job(9, 1, 64);
  hog.profile.host_bw_demand_gbps =
      model_.params().host_bw_capacity_gbps - 5.0;
  state_.place(hog, {0}, 0.0);
  EXPECT_NEAR(state_.host_bw_used(0),
              model_.params().host_bw_capacity_gbps - 5.0, 1e-9);

  JobRequest wants_bandwidth = job(1, 2, 1);  // demands ~27 GB/s
  EXPECT_TRUE(filter_hosts(wants_bandwidth, state_).empty());

  JobRequest frugal = job(2, 1, 64);
  frugal.profile.host_bw_demand_gbps = 1.0;
  EXPECT_FALSE(filter_hosts(frugal, state_).empty());

  // Bandwidth frees with the job.
  state_.remove(9, 1.0);
  EXPECT_NEAR(state_.host_bw_used(0), 0.0, 1e-9);
  EXPECT_FALSE(filter_hosts(wants_bandwidth, state_).empty());
}

TEST_F(SchedTest, TopoAwareFastPathHonorsBandwidth) {
  const topo::TopologyGraph cluster =
      topo::builders::cluster(6, MachineShape::kPower8Minsky);
  cluster::ClusterState state(cluster, model_);
  // Saturate machines 0..4; only machine 5 has bandwidth headroom.
  for (int machine = 0; machine < 5; ++machine) {
    JobRequest hog = perf::make_profiled_dl(
        100 + machine, 0.0, NeuralNet::kAlexNet, 64, 1, 0.0, model_, cluster,
        700);
    hog.profile.host_bw_demand_gbps =
        model_.params().host_bw_capacity_gbps - 1.0;
    state.place(hog, {cluster.gpus_of_machine(machine)[0]}, 0.0);
  }
  const JobRequest j = perf::make_profiled_dl(
      1, 0.0, NeuralNet::kAlexNet, 1, 2, 0.5, model_, cluster, 700);
  TopoAwareScheduler scheduler({}, /*postpone=*/false);
  const auto placement = scheduler.place(j, state);
  ASSERT_TRUE(placement.has_value());
  for (const int gpu : placement->gpus) {
    EXPECT_EQ(cluster.machine_of_gpu(gpu), 5);
  }
}

// ------------------------------------------------------- twin reuse ----
//
// Within one decision, place_on_best_machine scores one empty machine per
// machine class and hands its result to the later empty candidates of the
// class (DESIGN.md §17.1). The proof that this is exact: on every empty
// machine, drb_evaluate returns the representative's placement translated
// by local GPU index, with bit-equal utility, for every network, batch
// class and job size, next to occupied machines whose jobs load the
// cluster's shared state.

struct TwinCase {
  const char* name;
  topo::TopologyGraph topology;
  std::vector<int> occupied;  // machines given a running job
};

std::vector<TwinCase> twin_cases() {
  using topo::builders::cluster;
  std::vector<TwinCase> cases;
  cases.push_back({"minsky", cluster(6, MachineShape::kPower8Minsky), {1, 4}});
  cases.push_back({"pcie", cluster(6, MachineShape::kPower8Pcie), {1, 4}});
  cases.push_back({"dgx1", cluster(6, MachineShape::kDgx1), {1, 4}});
  cases.push_back(
      {"mixed",
       topo::builders::mixed_cluster(
           {MachineShape::kPower8Minsky, MachineShape::kDgx1,
            MachineShape::kPower8Pcie, MachineShape::kPower8Minsky,
            MachineShape::kDgx1, MachineShape::kPower8Pcie,
            MachineShape::kPower8Minsky, MachineShape::kDgx1}),
       {3, 4}});
  return cases;
}

TEST(TwinReuseTest, EmptyMachinesOfOneClassScoreAsTranslatedTwins) {
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  for (const TwinCase& c : twin_cases()) {
    const topo::TopologyGraph& topology = c.topology;
    // One job inside the first occupied machine and one spanning both, so
    // co-runners and link flows (uplinks and root included) are loaded.
    cluster::ClusterState state(topology, model);
    const std::vector<int>& a = topology.gpus_of_machine(c.occupied[0]);
    const std::vector<int>& b = topology.gpus_of_machine(c.occupied[1]);
    state.place(perf::make_profiled_dl(1000, 0.0, NeuralNet::kGoogLeNet, 4, 2,
                                       0.0, model, topology, 700),
                {a.front(), a.back()}, 0.0);
    state.place(perf::make_profiled_dl(1001, 0.0, NeuralNet::kCaffeRef, 1, 2,
                                       0.0, model, topology, 700),
                {a[1], b[0]}, 0.0);
    const UtilityModel utility{UtilityWeights{}};
    for (int nn = 0; nn < jobgraph::kNeuralNetCount; ++nn) {
      for (int batch = 0; batch < jobgraph::kBatchClassCount; ++batch) {
        for (int k = 1; k <= 8; ++k) {
          const JobRequest request = perf::make_profiled_dl(
              1, 0.0, static_cast<NeuralNet>(nn),
              jobgraph::representative_batch_size(
                  static_cast<jobgraph::BatchClass>(batch)),
              k, 0.5, model, topology, 700);
          // The first empty machine of each class, and its placement.
          std::vector<bool> seen(static_cast<size_t>(topology.machine_count()));
          std::vector<std::optional<Placement>> expected(seen.size());
          for (int m = 0; m < topology.machine_count(); ++m) {
            if (!state.jobs_of_machine(m).empty() ||
                state.machine_free_count(m) < k) {
              continue;
            }
            const std::string label = std::string(c.name) + " nn " +
                                      std::to_string(nn) + " batch " +
                                      std::to_string(batch) + " k " +
                                      std::to_string(k) + " machine " +
                                      std::to_string(m);
            const size_t shape =
                static_cast<size_t>(topology.machine_class(m));
            const std::optional<Placement> placement = drb_evaluate(
                request, state.free_gpus_of_machine(m), state, utility);
            if (!seen[shape]) {
              seen[shape] = true;
              expected[shape] = placement;
              continue;
            }
            const std::optional<Placement>& twin = expected[shape];
            ASSERT_EQ(placement.has_value(), twin.has_value()) << label;
            if (!placement) continue;
            std::vector<int> translated;
            for (const int gpu : twin->gpus) {
              translated.push_back(
                  topology.gpus_of_machine(m)[static_cast<size_t>(
                      topology.local_gpu_of(gpu))]);
            }
            EXPECT_EQ(placement->gpus, translated) << label;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(placement->utility),
                      std::bit_cast<std::uint64_t>(twin->utility))
                << label;
          }
        }
      }
    }
  }
}

// The scheduler scores every occupied candidate and one empty candidate
// per class; every other empty candidate is a twin. Each candidate is
// either scored or twinned, so the counts show that occupied machines
// never twin. The explain entries show each twin's
// placement moved onto its own machine.
TEST(TwinReuseTest, OnlyEmptyMachinesTwin) {
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const std::string explain_path = ::testing::TempDir() + "twin_reuse.jsonl";
  obs::ObsConfig config;
  config.explain_out = explain_path;
  ASSERT_TRUE(obs::configure(config));
  for (const TwinCase& c : twin_cases()) {
    const topo::TopologyGraph& topology = c.topology;
    cluster::ClusterState state(topology, model);
    int id = 1000;
    for (const int machine : c.occupied) {
      const std::vector<int>& gpus = topology.gpus_of_machine(machine);
      state.place(perf::make_profiled_dl(id++, 0.0, NeuralNet::kGoogLeNet, 4,
                                         1, 0.0, model, topology, 700),
                  {gpus[0]}, 0.0);
    }
    for (int k = 1; k <= 8; ++k) {
      const JobRequest request = perf::make_profiled_dl(
          1, 0.0, NeuralNet::kAlexNet, 4, k, 0.0, model, topology, 700);
      long long occupied = 0;
      long long empty = 0;
      std::vector<int> shapes;
      for (int m = 0; m < topology.machine_count(); ++m) {
        if (state.machine_free_count(m) < k ||
            !state.host_bw_available(m, request.profile.host_bw_demand_gbps)) {
          continue;
        }
        if (!state.jobs_of_machine(m).empty()) {
          ++occupied;
          continue;
        }
        ++empty;
        const int shape = topology.machine_class(m);
        if (std::find(shapes.begin(), shapes.end(), shape) == shapes.end()) {
          shapes.push_back(shape);
        }
      }
      TopoAwareScheduler scheduler({}, /*postpone=*/false);
      obs::DecisionScope scope(scheduler.name(), request.id, k, 0.0, 0.0);
      scheduler.place(request, state);
      const std::string label = std::string(c.name) + " k " + std::to_string(k);
      const std::string prefix = "best-machine:";
      for (const obs::ExplainCandidate& candidate :
           scope.record().candidates) {
        if (candidate.source.rfind(prefix, 0) != 0) continue;
        const int machine = std::stoi(candidate.source.substr(prefix.size()));
        for (const int gpu : candidate.gpus) {
          EXPECT_EQ(topology.machine_of_gpu(gpu), machine)
              << label << " " << candidate.source;
        }
      }
      const long long classes = static_cast<long long>(shapes.size());
      EXPECT_EQ(scheduler.scoring_stats().scored, occupied + classes) << label;
      EXPECT_EQ(scheduler.scoring_stats().twin_reuses, empty - classes)
          << label;
    }
  }
  ASSERT_TRUE(obs::finalize());
  obs::reset();
  std::remove(explain_path.c_str());
}

// ------------------------------------------------------------- factory ----

TEST(SchedulerFactoryTest, MakesAllPolicies) {
  for (const Policy policy : {Policy::kFcfs, Policy::kBestFit,
                              Policy::kTopoAware, Policy::kTopoAwareP}) {
    const auto scheduler = make_scheduler(policy);
    ASSERT_NE(scheduler, nullptr);
    EXPECT_EQ(scheduler->name(), to_string(policy));
  }
}

}  // namespace
}  // namespace gts::sched
