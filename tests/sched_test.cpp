#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "cluster/state.hpp"
#include "decision_digest.hpp"
#include "obs/explain.hpp"
#include "obs/obs.hpp"
#include "perf/profile.hpp"
#include "sched/driver.hpp"
#include "sched/greedy.hpp"
#include "sched/scheduler.hpp"
#include "sched/topo_aware.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"

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

TEST_F(SchedTest, EveryPolicyPlacesAntiCollocatedJobsOnMixedCluster) {
  // Interleaved Minsky / PCIe / DGX-1 machines: DRB's physical cut peels
  // single GPUs off this graph instead of separating machines.
  std::vector<MachineShape> shapes;
  for (int i = 0; i < 4; ++i) {
    shapes.insert(shapes.end(), {MachineShape::kPower8Minsky,
                                 MachineShape::kPower8Pcie,
                                 MachineShape::kDgx1});
  }
  const topo::TopologyGraph cluster = topo::builders::mixed_cluster(shapes);
  const cluster::ClusterState state(cluster, model_);
  for (const Policy policy : {Policy::kFcfs, Policy::kBestFit,
                              Policy::kTopoAware, Policy::kTopoAwareP}) {
    const auto scheduler = make_scheduler(policy);
    for (const int k : {2, 3, 4, 8}) {
      const std::string label =
          std::string(to_string(policy)) + " k " + std::to_string(k);
      JobRequest spread = perf::make_profiled_dl(
          1, 0.0, NeuralNet::kAlexNet, 1, k, 0.0, model_, cluster, 700);
      spread.profile.single_node = false;
      spread.profile.anti_collocate = true;
      const auto placement = scheduler->place(spread, state);
      ASSERT_TRUE(placement.has_value()) << label;
      const util::Status audit =
          check::audit_placement(spread, placement->gpus, state);
      EXPECT_TRUE(audit.is_ok()) << label << ": " << audit.error().message;
    }
  }
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

  // A job that may span machines needs only demand / k on each one.
  JobRequest shared = job(3, 2, 64);
  shared.profile.host_bw_demand_gbps = 8.0;  // 4 per machine; 5 are left
  EXPECT_FALSE(host_fits(shared, state_, 0));
  shared.profile.single_node = false;
  EXPECT_TRUE(host_fits(shared, state_, 0));

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
// place_on_best_machine runs DRB once per (machine class, job shape) on
// empty machines and serves every later empty candidate of the class from
// the empty-machine memo (DESIGN.md §17.1). The first proof that this is
// exact: on every empty machine, drb_evaluate returns the first empty
// machine's placement translated by local GPU index, with bit-equal
// utility, for every network, batch class and job size, next to occupied
// machines whose jobs load the cluster's shared state.

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

// A fresh scheduler scores every occupied candidate and one empty
// candidate per class; every other empty candidate is a memo hit. Each
// candidate is either scored or served, so the counts show that occupied
// machines are never served from the memo. The explain entries show each
// served placement moved onto its own machine.
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

// The scheduler keeps the FIRST maximum in candidate order. Eight
// identical empty machines tie on both the pre-score and the utility, so
// the job lands on machine 0; a last-maximum reduction would pick
// machine 7.
TEST(TwinReuseTest, UtilityTiesBreakTowardTheFirstMachine) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const cluster::ClusterState state(topology, model);
  const JobRequest job =
      JobRequest::make_dl(1, 0.0, NeuralNet::kAlexNet, 4, 2, 0.4, 250);

  TopoAwareScheduler scheduler({}, /*postpone=*/false);
  const auto placement = scheduler.place(job, state);
  ASSERT_TRUE(placement.has_value());
  ASSERT_EQ(placement->gpus.size(), 2u);
  for (const int gpu : placement->gpus) {
    EXPECT_EQ(topology.machine_of_gpu(gpu), 0) << "gpu " << gpu;
  }
}

// ------------------------------------------------- empty-machine memo ----
//
// The memo carries results across decisions, so on top of the class
// translation above it needs: an empty machine's result does not depend
// on placements elsewhere; the key covers every request field the result
// depends on; results never leak between topologies or models; machines
// that carry other machines' flows are never served; and its size stays
// bounded.

bool same_result(const std::optional<Placement>& a,
                 const std::optional<Placement>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->gpus == b->gpus &&
                std::bit_cast<std::uint64_t>(a->utility) ==
                    std::bit_cast<std::uint64_t>(b->utility) &&
                a->satisfied == b->satisfied);
}

std::string describe(const std::optional<Placement>& placement) {
  if (!placement) return "none";
  std::string out = "gpus";
  for (const int gpu : placement->gpus) {
    out += ' ';
    out += std::to_string(gpu);
  }
  return out + " utility " + std::to_string(placement->utility);
}

TEST(EmptyMemoTest, EmptyMachineResultIgnoresPlacementsElsewhere) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(6, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  cluster::ClusterState state(topology, model);
  const UtilityModel utility{UtilityWeights{}};
  std::vector<JobRequest> requests;
  for (int nn = 0; nn < jobgraph::kNeuralNetCount; ++nn) {
    for (int k = 1; k <= 4; ++k) {
      requests.push_back(perf::make_profiled_dl(
          1, 0.0, static_cast<NeuralNet>(nn), 16, k, 0.5, model, topology,
          700));
    }
  }
  const int empty = 5;
  std::vector<std::optional<Placement>> before;
  TopoAwareScheduler warmed({}, /*postpone=*/false);
  for (const JobRequest& request : requests) {
    before.push_back(drb_evaluate(
        request, state.free_gpus_of_machine(empty), state, utility));
    warmed.place(request, state);
  }

  // A job inside machine 0, and one spanning machines 1 and 2 whose flows
  // cross both uplinks and the network root.
  const std::vector<int>& m0 = topology.gpus_of_machine(0);
  const std::vector<int>& m1 = topology.gpus_of_machine(1);
  const std::vector<int>& m2 = topology.gpus_of_machine(2);
  state.place(perf::make_profiled_dl(1000, 0.0, NeuralNet::kGoogLeNet, 4, 2,
                                     0.0, model, topology, 700),
              {m0[0], m0[3]}, 0.0);
  state.place(perf::make_profiled_dl(1001, 0.0, NeuralNet::kCaffeRef, 1, 2,
                                     0.0, model, topology, 700),
              {m1[0], m2[0]}, 0.0);
  const auto loaded = [&](int machine) {
    return std::ranges::any_of(
        topology.links_of_machine(machine), [&](topo::LinkId link) {
          return state.link_flows()[static_cast<size_t>(link)] != 0;
        });
  };
  ASSERT_TRUE(loaded(1) && loaded(2));
  ASSERT_FALSE(loaded(empty));

  const ScoringStats warm = warmed.scoring_stats();
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::string label = "request " + std::to_string(i);
    const std::optional<Placement> after = drb_evaluate(
        requests[i], state.free_gpus_of_machine(empty), state, utility);
    EXPECT_TRUE(same_result(before[i], after))
        << label << ": " << describe(before[i]) << " vs " << describe(after);
    TopoAwareScheduler fresh({}, /*postpone=*/false);
    const std::optional<Placement> want = fresh.place(requests[i], state);
    const std::optional<Placement> got = warmed.place(requests[i], state);
    EXPECT_TRUE(same_result(got, want))
        << label << ": " << describe(got) << " vs " << describe(want);
  }
  // Every decision after the placements found the empty machines' results
  // in the memo: machines 3, 4 and 5 are served, and no DRB ran on them.
  EXPECT_EQ(warmed.scoring_stats().twin_reuses - warm.twin_reuses,
            3 * static_cast<long long>(requests.size()));
}

TEST(EmptyMemoTest, KeyCoversEveryFieldThatChangesTheResult) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(6, MachineShape::kDgx1);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const cluster::ClusterState state(topology, model);
  const UtilityModel utility{UtilityWeights{}};
  const JobRequest base = perf::make_profiled_dl(
      7, 1.0, NeuralNet::kAlexNet, 16, 4, 0.5, model, topology, 700);

  struct Perturbation {
    const char* field;
    void (*apply)(JobRequest&);
  };
  const Perturbation perturbations[] = {
      {"id", [](JobRequest& r) { r.id = 99; }},
      {"arrival_time", [](JobRequest& r) { r.arrival_time = 50.0; }},
      {"min_utility", [](JobRequest& r) { r.min_utility = 0.99; }},
      {"num_gpus", [](JobRequest& r) {
         r.num_gpus = 3;
         r.comm_graph = jobgraph::JobGraph::all_to_all(3, r.profile.comm_weight);
       }},
      {"iterations", [](JobRequest& r) { r.iterations += 1; }},
      {"nn", [](JobRequest& r) { r.profile.nn = NeuralNet::kGoogLeNet; }},
      {"batch", [](JobRequest& r) { r.profile.batch = jobgraph::BatchClass::kBig; }},
      {"batch_size", [](JobRequest& r) { r.profile.batch_size = 64; }},
      {"comm_weight", [](JobRequest& r) { r.profile.comm_weight = 1.0; }},
      {"solo_time_pack", [](JobRequest& r) { r.profile.solo_time_pack *= 0.5; }},
      {"solo_time_pack=0", [](JobRequest& r) { r.profile.solo_time_pack = 0.0; }},
      {"collocation_slowdown",
       [](JobRequest& r) { r.profile.collocation_slowdown.fill(0.9); }},
      {"host_bw_demand_gbps",
       [](JobRequest& r) { r.profile.host_bw_demand_gbps += 1.0; }},
      {"single_node", [](JobRequest& r) { r.profile.single_node = false; }},
      {"anti_collocate", [](JobRequest& r) { r.profile.anti_collocate = true; }},
      {"edge weight", [](JobRequest& r) {
         r.comm_graph = jobgraph::JobGraph::all_to_all(4, 2.5);
       }},
      {"one edge weight", [](JobRequest& r) {
         jobgraph::JobGraph graph(4);
         for (const jobgraph::CommEdge& edge : r.comm_graph.edges()) {
           graph.add_edge(edge.a, edge.b,
                          edge.a == 0 && edge.b == 1 ? 0.5 : edge.weight);
         }
         r.comm_graph = graph;
       }},
      {"ring", [](JobRequest& r) {
         r.comm_graph = jobgraph::JobGraph::ring(4, r.profile.comm_weight);
       }},
      {"edgeless", [](JobRequest& r) {
         r.comm_graph = jobgraph::JobGraph::all_to_all(4, 0.0);
       }},
  };

  std::vector<std::uint64_t> base_key;
  TopoAwareScheduler::memo_shape_key(base, base_key);
  const std::optional<Placement> base_result =
      drb_evaluate(base, state.free_gpus_of_machine(0), state, utility);
  ASSERT_TRUE(base_result.has_value());
  int changed = 0;
  for (const Perturbation& perturbation : perturbations) {
    JobRequest request = base;
    perturbation.apply(request);
    std::vector<std::uint64_t> key;
    TopoAwareScheduler::memo_shape_key(request, key);
    const std::optional<Placement> result =
        drb_evaluate(request, state.free_gpus_of_machine(0), state, utility);
    // `satisfied` follows min_utility, which the memo recomputes per hit.
    const bool differs =
        result.has_value() != base_result.has_value() ||
        (result && (result->gpus != base_result->gpus ||
                    std::bit_cast<std::uint64_t>(result->utility) !=
                        std::bit_cast<std::uint64_t>(base_result->utility)));
    if (differs) {
      ++changed;
      EXPECT_NE(key, base_key) << perturbation.field;
    }
    // Whatever the key says, a scheduler that saw `base` decides like a
    // fresh one.
    TopoAwareScheduler warmed({}, /*postpone=*/false);
    warmed.place(base, state);
    TopoAwareScheduler fresh({}, /*postpone=*/false);
    const std::optional<Placement> want = fresh.place(request, state);
    const std::optional<Placement> got = warmed.place(request, state);
    EXPECT_TRUE(same_result(got, want))
        << perturbation.field << ": " << describe(got) << " vs "
        << describe(want);
  }
  // The perturbations have teeth: most of them move the result.
  EXPECT_GE(changed, 10);
  // The fields DRB never reads stay out of the key, so those jobs share
  // one memo entry.
  for (void (*apply)(JobRequest&) :
       {perturbations[0].apply, perturbations[1].apply,
        perturbations[2].apply}) {
    JobRequest request = base;
    apply(request);
    std::vector<std::uint64_t> key;
    TopoAwareScheduler::memo_shape_key(request, key);
    EXPECT_EQ(key, base_key);
  }
}

// Decisions of one scheduler fed states of different topologies, then of
// different perf models, equal a fresh scheduler's. Each new topology and
// model is built in the storage of the one before, so a memo keyed by
// address would serve stale results.
TEST(EmptyMemoTest, MemoFollowsTopologyAndModelIdentity) {
  TopoAwareScheduler reused({}, /*postpone=*/false);
  std::optional<topo::TopologyGraph> topology;
  std::optional<perf::DlWorkloadModel> model;
  // The requests are profiled once, so their shape keys are the same
  // under every topology and model the states use.
  std::vector<JobRequest> requests;
  {
    const perf::DlWorkloadModel profiler(
        perf::CalibrationParams::paper_minsky());
    const topo::TopologyGraph profiled =
        topo::builders::cluster(6, MachineShape::kPower8Minsky);
    for (int k = 1; k <= 4; ++k) {
      requests.push_back(perf::make_profiled_dl(
          1, 0.0, NeuralNet::kAlexNet, 16, k, 0.5, profiler, profiled, 700));
    }
  }
  const auto check = [&](const std::string& label) {
    const cluster::ClusterState state(*topology, *model);
    for (const JobRequest& request : requests) {
      const int k = request.num_gpus;
      TopoAwareScheduler fresh({}, /*postpone=*/false);
      const std::optional<Placement> want = fresh.place(request, state);
      const std::optional<Placement> got = reused.place(request, state);
      EXPECT_TRUE(same_result(got, want))
          << label << " k " << k << ": " << describe(got) << " vs "
          << describe(want);
    }
  };
  model.emplace(perf::CalibrationParams::paper_minsky());
  for (const MachineShape shape :
       {MachineShape::kPower8Minsky, MachineShape::kPower8Pcie,
        MachineShape::kPower8Minsky}) {
    topology.reset();
    topology.emplace(topo::builders::cluster(6, shape));
    check("topology " + std::to_string(static_cast<int>(shape)));
  }
  for (const bool k80 : {true, false, true}) {
    model.reset();
    model.emplace(k80 ? perf::CalibrationParams::paper_k80()
                      : perf::CalibrationParams::paper_minsky());
    check(std::string("model ") + (k80 ? "k80" : "minsky"));
  }
  // A topology changed in place is a new topology too: an NVLink across
  // machine 0's sockets changes its distances.
  check("before the new link");
  const std::vector<int> gpus = topology->gpus_of_machine(0);
  topology->add_link({topology->gpu_node(gpus[0]), topology->gpu_node(gpus[2]),
                      topo::LinkKind::kNvlink, 1.0, 40.0, 2});
  check("after the new link");
}

// A hand-built cluster of five two-socket machines with one GPU per
// socket. Machine 1 has no uplink of its own: it hangs off machine 0's
// socket 0, so its traffic to the network crosses machine 0's
// socket-to-machine link, which machine 0's own two-GPU jobs also use. A
// job spanning machines 1 and 2 therefore loads a link inside the empty
// machine 0, and the memo must not serve machine 0 then.
TEST(EmptyMemoTest, MachineCarryingAnotherMachinesRouteIsNeverServed) {
  using topo::Link;
  using topo::LinkKind;
  using topo::Node;
  using topo::NodeKind;
  topo::TopologyGraph topology;
  const topo::NodeId root =
      topology.add_node({NodeKind::kNetwork, "net", -1, -1, -1, -1});
  std::vector<topo::NodeId> sockets0;
  for (int m = 0; m < 5; ++m) {
    const std::string name = std::string("m") + std::to_string(m);
    const topo::NodeId machine =
        topology.add_node({NodeKind::kMachine, name, m, -1, -1, -1});
    for (int s = 0; s < 2; ++s) {
      const topo::NodeId socket = topology.add_node(
          {NodeKind::kSocket, name + "s" + std::to_string(s), m, s, -1, -1});
      const topo::NodeId gpu = topology.add_node(
          {NodeKind::kGpu, name + "g" + std::to_string(s), m, s, -1, s});
      topology.add_link({gpu, socket, LinkKind::kPcie, 1.0, 32.0, 16});
      topology.add_link({socket, machine, LinkKind::kSmpBus, 20.0, 16.0, 1});
      if (m == 0 && s == 0) sockets0.push_back(socket);
    }
    const topo::NodeId uplink = m == 1 ? sockets0.front() : root;
    topology.add_link({machine, uplink, LinkKind::kNetwork, 100.0, 10.0, 1});
  }
  ASSERT_TRUE(topology.validate().is_ok());
  ASSERT_EQ(topology.machine_count(), 5);

  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const UtilityModel utility{UtilityWeights{}};
  const JobRequest request = perf::make_profiled_dl(
      1, 0.0, NeuralNet::kAlexNet, 16, 2, 0.0, model, topology, 700);

  TopoAwareScheduler warmed({}, /*postpone=*/false);
  cluster::ClusterState idle(topology, model);
  ASSERT_TRUE(warmed.place(request, idle).has_value());
  const std::optional<Placement> idle_result =
      drb_evaluate(request, idle.free_gpus_of_machine(0), idle, utility);

  cluster::ClusterState state(topology, model);
  JobRequest spanning = perf::make_profiled_dl(
      1000, 0.0, NeuralNet::kCaffeRef, 1, 2, 0.0, model, topology, 700);
  spanning.profile.single_node = false;
  state.place(spanning,
              {topology.gpus_of_machine(1)[0], topology.gpus_of_machine(2)[0]},
              0.0);
  ASSERT_TRUE(state.jobs_of_machine(0).empty());
  // The flow makes machine 0's result differ, so a memo hit would be
  // wrong.
  const std::optional<Placement> loaded_result =
      drb_evaluate(request, state.free_gpus_of_machine(0), state, utility);
  ASSERT_TRUE(idle_result.has_value() && loaded_result.has_value());
  EXPECT_NE(std::bit_cast<std::uint64_t>(idle_result->utility),
            std::bit_cast<std::uint64_t>(loaded_result->utility));

  const ScoringStats warm = warmed.scoring_stats();
  TopoAwareScheduler fresh({}, /*postpone=*/false);
  const std::optional<Placement> want = fresh.place(request, state);
  const std::optional<Placement> got = warmed.place(request, state);
  EXPECT_TRUE(same_result(got, want))
      << describe(got) << " vs " << describe(want);
  // Candidates are machines 0, 3 and 4 (1 and 2 have one free GPU).
  // Machines 3 and 4 are served; machine 0 runs DRB again.
  EXPECT_EQ(warmed.scoring_stats().scored - warm.scored, 1);
  EXPECT_EQ(warmed.scoring_stats().twin_reuses - warm.twin_reuses, 2);
}

// More distinct comm graphs than the memo's cap: the memo never holds
// more than the cap, and decisions still equal a fresh scheduler's.
TEST(EmptyMemoTest, MemoStaysBoundedUnderDistinctShapes) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(6, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const cluster::ClusterState state(topology, model);
  TopoAwareScheduler reused({}, /*postpone=*/false);
  const JobRequest base = perf::make_profiled_dl(
      1, 0.0, NeuralNet::kAlexNet, 16, 2, 0.5, model, topology, 700);
  const int shapes = static_cast<int>(TopoAwareScheduler::empty_memo_cap) + 100;
  std::size_t largest = 0;
  for (int i = 0; i < shapes; ++i) {
    JobRequest request = base;
    request.comm_graph = jobgraph::JobGraph::all_to_all(2, 1.0 + i / 4096.0);
    TopoAwareScheduler fresh({}, /*postpone=*/false);
    const std::optional<Placement> want = fresh.place(request, state);
    const std::optional<Placement> got = reused.place(request, state);
    ASSERT_TRUE(same_result(got, want))
        << "shape " << i << ": " << describe(got) << " vs " << describe(want);
    ASSERT_LE(reused.empty_memo_size(), TopoAwareScheduler::empty_memo_cap)
        << "shape " << i;
    largest = std::max(largest, reused.empty_memo_size());
  }
  EXPECT_EQ(largest, TopoAwareScheduler::empty_memo_cap);
  EXPECT_EQ(reused.scoring_stats().scored, shapes);
}

DriverReport run_trace(const topo::TopologyGraph& topology,
                       const perf::DlWorkloadModel& model,
                       TopoAwareScheduler& scheduler,
                       const std::vector<JobRequest>& jobs) {
  Driver driver(topology, model, scheduler);
  return driver.run(jobs);
}

// The memo fires most on a large, lightly loaded cluster of one machine
// shape, where nearly every candidate is an empty machine. Decisions of a
// seeded 300-job TOPO-AWARE-P trace of short jobs on 40 Minsky machines
// (16 candidates per decision) are pinned by a digest recorded before
// twin reuse existed (tests/decision_digest.hpp). Its 4800 candidates
// split into DRB runs and memo hits; within-decision twins alone scored
// 300, and the cross-decision memo leaves one DRB run per job shape.
TEST(TwinReuseTest, SeededTraceKeepsCommittedDecisionsAndScoringCounts) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(40, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  trace::GeneratorOptions options;
  options.job_count = 300;
  options.seed = 20261018;
  options.iterations = 250;
  const auto jobs = trace::generate_workload(options, model, topology);

  TopoAwareScheduler scheduler({}, /*postpone=*/true);
  const DriverReport report = run_trace(topology, model, scheduler, jobs);
  const std::uint64_t digest =
      testing_digest::decision_digest(report.recorder);
  EXPECT_EQ(digest, 0x0d2ad6b703386cbaULL)
      << "digest " << testing_digest::hex(digest);
  const ScoringStats scoring = scheduler.scoring_stats();
  EXPECT_EQ(scoring.scored + scoring.twin_reuses, 4800);
  EXPECT_EQ(scoring.scored, 34);
  EXPECT_EQ(scoring.twin_reuses, 4766);
}

// A seeded 500-job trace on 8 Minsky machines, large enough that every
// single-node job takes the pre-scored candidate path. Per postponement
// mode, the decisions and the explain JSONL (decision_us masked) are
// pinned by values committed from a run of the scheduler before its
// candidate-scoring pool was removed. The DRB and scoring counters were
// re-pinned when the empty-machine memo replaced per-decision twins: the
// candidates weighed (scored + twin_reuses) did not change, but more of
// them are memo hits, so fewer run DRB. The explain digests were re-pinned
// when the JSON writer moved from %.17g to shortest round-trip numbers:
// the bytes changed, and the old and new JSONL parse to bit-identical
// values.
struct SeededTracePin {
  bool postpone;
  std::uint64_t decisions;
  int bipartitions;
  int fm_passes;
  int max_depth;
  long long candidates;  // scored + twin_reuses
  long long scored;
  long long twin_reuses;
  std::uint64_t explain;
};

TEST(SeededTracePinTest, FiveHundredJobsMatchCommittedPinsInBothModes) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  trace::GeneratorOptions options;
  options.job_count = 500;
  options.seed = 20260807;
  const auto jobs = trace::generate_workload(options, model, topology);

  const SeededTracePin pins[] = {
      {false, 0xd0bad453d1363ecaULL, 274, 274, 3, 556, 430, 126,
       0x2627b85e490a7614ULL},
      {true, 0xa2e080f372025e6eULL, 388, 388, 3, 671, 545, 126,
       0xf3a3b15ec2c1877fULL},
  };
  for (const SeededTracePin& pin : pins) {
    const std::string label = "postpone=" + std::to_string(pin.postpone);
    const std::string explain_path =
        ::testing::TempDir() + "seeded_trace_pin.jsonl";
    obs::ObsConfig config;
    config.explain_out = explain_path;
    ASSERT_TRUE(obs::configure(config));
    TopoAwareScheduler scheduler({}, pin.postpone);
    const DriverReport report = run_trace(topology, model, scheduler, jobs);
    ASSERT_TRUE(obs::finalize());
    obs::reset();
    std::ostringstream explain;
    explain << std::ifstream(explain_path, std::ios::binary).rdbuf();
    std::remove(explain_path.c_str());

    ASSERT_EQ(report.recorder.records().size(), 500u) << label;
    const std::uint64_t decisions =
        testing_digest::decision_digest(report.recorder);
    EXPECT_EQ(decisions, pin.decisions)
        << label << " decisions " << testing_digest::hex(decisions);
    const partition::DrbStats drb = scheduler.drb_stats();
    EXPECT_EQ(drb.bipartitions, pin.bipartitions) << label;
    EXPECT_EQ(drb.fm_passes, pin.fm_passes) << label;
    EXPECT_EQ(drb.max_depth, pin.max_depth) << label;
    const ScoringStats scoring = scheduler.scoring_stats();
    EXPECT_EQ(scoring.scored + scoring.twin_reuses, pin.candidates) << label;
    EXPECT_EQ(scoring.scored, pin.scored) << label;
    EXPECT_EQ(scoring.twin_reuses, pin.twin_reuses) << label;
    const std::string masked = testing_digest::mask_decision_us(explain.str());
    ASSERT_NE(masked.find("\"decision_us\":0"), std::string::npos) << label;
    const std::uint64_t explain_digest = testing_digest::text_digest(masked);
    EXPECT_EQ(explain_digest, pin.explain)
        << label << " explain " << testing_digest::hex(explain_digest);
  }
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
