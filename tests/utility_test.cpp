#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cluster/state.hpp"
#include "perf/profile.hpp"
#include "sched/utility.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"

namespace gts::sched {
namespace {

using jobgraph::JobRequest;
using jobgraph::NeuralNet;

class UtilityTest : public ::testing::Test {
 protected:
  topo::TopologyGraph topo_ = topo::builders::power8_minsky();
  perf::DlWorkloadModel model_{perf::CalibrationParams::paper_minsky()};
  cluster::ClusterState state_{topo_, model_};
  UtilityModel utility_{};

  JobRequest job(int id, int gpus, int batch = 4,
                 NeuralNet nn = NeuralNet::kAlexNet) {
    return perf::make_profiled_dl(id, 0.0, nn, batch, gpus, 0.5, model_,
                                  topo_, 700);
  }
};

// --------------------------------------------------------------- Eq. 3 ----

TEST_F(UtilityTest, CommCostSumsPairDistances) {
  EXPECT_DOUBLE_EQ(
      UtilityModel::comm_cost(topo_, std::vector<int>{0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(
      UtilityModel::comm_cost(topo_, std::vector<int>{0, 2}), 42.0);
  // {0,1,2}: d(0,1)+d(0,2)+d(1,2) = 1 + 42 + 42.
  EXPECT_DOUBLE_EQ(
      UtilityModel::comm_cost(topo_, std::vector<int>{0, 1, 2}), 85.0);
  EXPECT_DOUBLE_EQ(UtilityModel::comm_cost(topo_, std::vector<int>{0}), 0.0);
}

TEST_F(UtilityTest, BestCommCostIsPack) {
  EXPECT_DOUBLE_EQ(UtilityModel::best_comm_cost(topo_, 2), 1.0);
  // Pack of 4 on the Minsky: 2 intra pairs at 1 + 4 cross pairs at 42.
  EXPECT_DOUBLE_EQ(UtilityModel::best_comm_cost(topo_, 4), 170.0);
}

// --------------------------------------------------------------- Eq. 4 ----

TEST_F(UtilityTest, InterferenceIsOneOnEmptyMachine) {
  const JobRequest j = job(1, 2);
  const double interference =
      utility_.interference(j, std::vector<int>{0, 1}, state_);
  EXPECT_NEAR(interference, 1.0, 1e-9);
}

TEST_F(UtilityTest, InterferenceDropsWithCoRunners) {
  state_.place(job(1, 1, 1), {2}, 0.0);
  const JobRequest j = job(2, 2, 1);
  const double interference =
      utility_.interference(j, std::vector<int>{0, 1}, state_);
  EXPECT_LT(interference, 1.0);
  EXPECT_GT(interference, 0.4);
}

TEST_F(UtilityTest, InterferenceWorseOnSpreadPlacementWithTraffic) {
  state_.place(job(1, 1, 1), {1}, 0.0);
  const JobRequest j = job(2, 2, 1);
  const double pack_interference =
      utility_.interference(j, std::vector<int>{2, 3}, state_);
  const double spread_interference =
      utility_.interference(j, std::vector<int>{0, 2}, state_);
  EXPECT_LT(spread_interference, pack_interference);
}

// ------------------------------------------------------------- combine ----

TEST_F(UtilityTest, CombineIsWeightedGeometricMean) {
  // With full comm weight and equal alphas, combine(u,u,u) == u.
  EXPECT_NEAR(utility_.combine(0.5, 0.5, 0.5, 1.0), 0.5, 1e-12);
  // No communication: the comm factor is ignored entirely.
  EXPECT_NEAR(utility_.combine(0.001, 0.8, 0.8, 0.0), 0.8, 1e-12);
  // Monotone in each factor.
  EXPECT_GT(utility_.combine(0.9, 0.5, 0.5, 1.0),
            utility_.combine(0.5, 0.5, 0.5, 1.0));
}

TEST_F(UtilityTest, CombineBounded) {
  EXPECT_LE(utility_.combine(1.0, 1.0, 1.0, 1.0), 1.0);
  EXPECT_GT(utility_.combine(0.0, 0.0, 0.0, 1.0), 0.0);  // floor guard
}

TEST_F(UtilityTest, NormalizedCommWeight) {
  EXPECT_DOUBLE_EQ(normalized_comm_weight(job(1, 2, 1)), 1.0);   // tiny: 4/4
  EXPECT_DOUBLE_EQ(normalized_comm_weight(job(1, 2, 4)), 0.75);  // small
  EXPECT_DOUBLE_EQ(normalized_comm_weight(job(1, 2, 64)), 0.25); // big
  EXPECT_DOUBLE_EQ(normalized_comm_weight(job(1, 1)), 0.0);  // no edges
}

// ------------------------------------------------------------ evaluate ----

TEST_F(UtilityTest, PackBeatsSpreadForCommunicatingJob) {
  const JobRequest j = job(1, 2, 1);
  const double pack = utility_.placement_utility(j, std::vector<int>{0, 1}, state_);
  const double spread =
      utility_.placement_utility(j, std::vector<int>{0, 2}, state_);
  EXPECT_GT(pack, spread);
  EXPECT_GE(pack, 0.5);  // satisfies the Table 1 multi-GPU threshold
  EXPECT_LT(spread, 0.5);  // would be postponed by TOPO-AWARE-P
}

TEST_F(UtilityTest, SpreadPenaltyShrinksForLowCommJobs) {
  const JobRequest heavy = job(1, 2, 1);   // tiny batch, comm weight 4
  const JobRequest light = job(2, 2, 64);  // big batch, comm weight 1
  const double heavy_gap =
      utility_.placement_utility(heavy, std::vector<int>{0, 1}, state_) -
      utility_.placement_utility(heavy, std::vector<int>{0, 2}, state_);
  const double light_gap =
      utility_.placement_utility(light, std::vector<int>{0, 1}, state_) -
      utility_.placement_utility(light, std::vector<int>{0, 2}, state_);
  EXPECT_GT(heavy_gap, light_gap);
}

TEST_F(UtilityTest, SingleGpuJobUtilityIgnoresComm) {
  const JobRequest j = job(1, 1);
  const UtilityBreakdown eval =
      utility_.evaluate(j, std::vector<int>{0}, state_);
  EXPECT_DOUBLE_EQ(eval.comm_weight, 0.0);
  EXPECT_DOUBLE_EQ(eval.comm_utility, 1.0);
  EXPECT_GE(eval.utility, 0.3);  // always placeable at the 1-GPU threshold
}

TEST_F(UtilityTest, FragmentationRewardsFillingTheMachine) {
  const JobRequest j4 = job(1, 4, 1);
  const UtilityBreakdown eval =
      utility_.evaluate(j4, std::vector<int>{0, 1, 2, 3}, state_);
  EXPECT_DOUBLE_EQ(eval.frag_omega, 0.0);
  EXPECT_DOUBLE_EQ(eval.frag_utility, 1.0);
}

TEST_F(UtilityTest, ObjectiveLowerForBetterPlacements) {
  const JobRequest j = job(1, 2, 1);
  const UtilityBreakdown pack =
      utility_.evaluate(j, std::vector<int>{0, 1}, state_);
  const UtilityBreakdown spread =
      utility_.evaluate(j, std::vector<int>{0, 2}, state_);
  EXPECT_LT(pack.objective, spread.objective);  // Eq. 1 minimization
}

TEST_F(UtilityTest, CustomWeightsShiftEmphasis) {
  // All weight on fragmentation: pack of 2 (leaves socket 1 free) scores
  // below a full 4-GPU fill.
  UtilityModel frag_only(UtilityWeights{0.0, 0.0, 1.0});
  const double two = frag_only.placement_utility(
      job(1, 2, 1), std::vector<int>{0, 1}, state_);
  const double four = frag_only.placement_utility(
      job(2, 4, 1), std::vector<int>{0, 1, 2, 3}, state_);
  EXPECT_GT(four, two);
}

// ------------------------------------------------ bit-identical Eq. 4 ----
//
// UtilityModel::evaluate against a small reference that materializes the
// adjusted flow table (link_flows() + the candidate's flows, then minus
// each affected job's own) and gathers co-runners by scanning every
// running job. Every breakdown field must match bit for bit.

/// True when a GPU of `a` shares a machine (with `socket`, a socket) with
/// a GPU of `b`.
bool shares(const topo::TopologyGraph& topology, std::span<const int> a,
            std::span<const int> b, bool socket) {
  for (const int gpu_a : a) {
    for (const int gpu_b : b) {
      if (socket ? topology.same_socket(gpu_a, gpu_b)
                 : topology.same_machine(gpu_a, gpu_b)) {
        return true;
      }
    }
  }
  return false;
}

/// Running jobs (ascending id, `exclude` skipped) sharing a machine with
/// `gpus`, flagged when they share a socket.
std::vector<perf::CoRunner> reference_co_runners(
    const cluster::ClusterState& state, std::span<const int> gpus,
    int exclude) {
  const topo::TopologyGraph& topology = state.topology();
  std::vector<perf::CoRunner> co;
  for (const auto& [id, job] : state.running_jobs()) {
    if (id == exclude || !shares(topology, job.gpus, gpus, false)) continue;
    co.push_back(
        {job.request.profile.batch, shares(topology, job.gpus, gpus, true)});
  }
  return co;
}

double reference_interference(const JobRequest& request,
                              std::span<const int> gpus,
                              const cluster::ClusterState& state) {
  const topo::TopologyGraph& topology = state.topology();
  const perf::DlWorkloadModel& model = state.model();
  const auto ratio = [](double best, double actual) {
    return (best > 0.0 && actual > 0.0) ? std::min(1.0, best / actual) : 1.0;
  };
  double ratio_sum = ratio(
      state.solo_iteration_time(request),
      model
          .iteration(request, gpus, topology, &state.link_flows(),
                     reference_co_runners(state, gpus, request.id))
          .total_s);
  int count = 1;

  perf::LinkFlows adjusted = state.link_flows();
  for (const jobgraph::CommEdge& edge : request.comm_graph.edges()) {
    for (const topo::LinkId link :
         topology
             .gpu_path(gpus[static_cast<size_t>(edge.a)],
                       gpus[static_cast<size_t>(edge.b)])
             .links) {
      ++adjusted[static_cast<size_t>(link)];
    }
  }
  for (const auto& [id, job] : state.running_jobs()) {
    if (id == request.id || !shares(topology, job.gpus, gpus, false)) {
      continue;
    }
    perf::LinkFlows foreign = adjusted;
    for (const topo::LinkId link : job.flow_links) {
      --foreign[static_cast<size_t>(link)];
    }
    std::vector<perf::CoRunner> co = reference_co_runners(state, job.gpus, id);
    co.push_back(
        {request.profile.batch, shares(topology, job.gpus, gpus, true)});
    ratio_sum += ratio(
        job.solo_iteration_s,
        model.iteration(job.request, job.gpus, topology, &foreign, co)
            .total_s);
    ++count;
  }
  return ratio_sum / count;
}

UtilityBreakdown reference_evaluate(const UtilityModel& utility,
                                    const JobRequest& request,
                                    std::span<const int> gpus,
                                    const cluster::ClusterState& state) {
  const topo::TopologyGraph& topology = state.topology();
  UtilityBreakdown out;
  out.comm_weight = normalized_comm_weight(request);
  out.comm_cost = UtilityModel::comm_cost(topology, gpus);
  const double best = UtilityModel::best_comm_cost(topology, request.num_gpus);
  out.comm_utility =
      (out.comm_cost > 0.0 && best > 0.0) ? best / out.comm_cost : 1.0;
  out.interference = reference_interference(request, gpus, state);
  double free_fraction = 0.0;
  int sockets = 0;
  for (const int machine : state.machines_of(gpus)) {
    for (int socket = 0; socket < topology.sockets_of_machine(machine);
         ++socket) {
      const std::vector<int>& socket_gpus =
          topology.gpus_of_socket(machine, socket);
      if (socket_gpus.empty()) continue;
      int free = 0;
      for (const int g : socket_gpus) {
        if (state.gpu_free(g) &&
            std::find(gpus.begin(), gpus.end(), g) == gpus.end()) {
          ++free;
        }
      }
      free_fraction += static_cast<double>(free) /
                       static_cast<double>(socket_gpus.size());
      ++sockets;
    }
  }
  out.frag_omega = sockets == 0 ? 0.0 : free_fraction / sockets;
  out.frag_utility = 1.0 - out.frag_omega;
  out.utility = utility.combine(out.comm_utility, out.interference,
                                out.frag_utility, out.comm_weight);
  const size_t n = gpus.size();
  const double worst_cost =
      static_cast<double>(n * (n - 1) / 2) * topology.max_gpu_distance();
  const double t_norm = worst_cost > 0.0 ? out.comm_cost / worst_cost : 0.0;
  const UtilityWeights& w = utility.weights();
  out.objective = w.alpha_cc * t_norm + w.alpha_b * (1.0 - out.interference) +
                  w.alpha_d * out.frag_omega;
  return out;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Random distinct free GPUs: `count` of them drawn from `machines`.
std::vector<int> random_free_gpus(const cluster::ClusterState& state,
                                  const std::vector<int>& machines, int count,
                                  util::Rng& rng) {
  std::vector<int> pool;
  for (const int machine : machines) {
    for (const int gpu : state.topology().gpus_of_machine(machine)) {
      if (state.gpu_free(gpu)) pool.push_back(gpu);
    }
  }
  std::vector<int> picked;
  while (static_cast<int>(picked.size()) < count && !pool.empty()) {
    const size_t i = static_cast<size_t>(
        rng.uniform_int(static_cast<std::uint64_t>(pool.size())));
    picked.push_back(pool[i]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return picked;
}

TEST(UtilityReferenceTest, EvaluateIsBitIdenticalOnSeededMixedClusters) {
  using topo::builders::MachineShape;
  std::vector<MachineShape> shapes;
  for (int i = 0; i < 5; ++i) {
    shapes.insert(shapes.end(), {MachineShape::kPower8Minsky,
                                 MachineShape::kDgx1,
                                 MachineShape::kPower8Pcie});
  }
  const topo::TopologyGraph topology = topo::builders::mixed_cluster(shapes);
  ASSERT_GT(topology.gpu_count(), 64);  // hierarchical path tables
  const perf::DlWorkloadModel model{perf::CalibrationParams::paper_minsky()};
  const UtilityModel utility;
  const NeuralNet nets[] = {NeuralNet::kAlexNet, NeuralNet::kCaffeRef,
                            NeuralNet::kGoogLeNet};
  const auto random_machines = [&](util::Rng& rng, int count) {
    std::vector<int> machines;
    while (static_cast<int>(machines.size()) < count) {
      const int machine = static_cast<int>(rng.uniform_int(
          static_cast<std::uint64_t>(topology.machine_count())));
      if (std::find(machines.begin(), machines.end(), machine) ==
          machines.end()) {
        machines.push_back(machine);
      }
    }
    return machines;
  };
  const auto random_job = [&](util::Rng& rng, int id, int tasks) {
    JobRequest request = perf::make_profiled_dl(
        id, 0.0, nets[rng.uniform_int(3)], 1 << rng.uniform_int(7), tasks,
        0.5, model, topology, 500);
    if (rng.uniform() < 0.5) {
      request.comm_graph = jobgraph::JobGraph::ring(tasks, 3.0);
    }
    return request;
  };

  int candidates = 0;
  int shared_link_candidates = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    cluster::ClusterState state(topology, model);
    // Running jobs: single- and multi-machine, spread over few machines
    // so their flows meet on machine uplinks and inside machines.
    int next_id = 0;
    for (int j = 0; j < 14; ++j) {
      const int tasks = 1 + static_cast<int>(rng.uniform_int(6));
      const std::vector<int> gpus = random_free_gpus(
          state, random_machines(rng, j % 2 == 0 ? 2 : 1), tasks, rng);
      if (static_cast<int>(gpus.size()) < tasks) continue;
      JobRequest request = random_job(rng, next_id++, tasks);
      request.profile.single_node = false;
      state.place(request, gpus, 0.0);
    }
    for (int c = 0; c < 40; ++c) {
      const int tasks = 1 + static_cast<int>(rng.uniform_int(6));
      const std::vector<int> gpus = random_free_gpus(
          state, random_machines(rng, c % 3 == 0 ? 1 : 2), tasks, rng);
      if (static_cast<int>(gpus.size()) < tasks) continue;
      const JobRequest request = random_job(rng, 1000 + c, tasks);
      const UtilityBreakdown got = utility.evaluate(request, gpus, state);
      const UtilityBreakdown want =
          reference_evaluate(utility, request, gpus, state);
      EXPECT_EQ(bits(got.comm_cost), bits(want.comm_cost)) << seed << "/" << c;
      EXPECT_EQ(bits(got.comm_utility), bits(want.comm_utility))
          << seed << "/" << c;
      EXPECT_EQ(bits(got.interference), bits(want.interference))
          << seed << "/" << c;
      EXPECT_EQ(bits(got.frag_omega), bits(want.frag_omega))
          << seed << "/" << c;
      EXPECT_EQ(bits(got.frag_utility), bits(want.frag_utility))
          << seed << "/" << c;
      EXPECT_EQ(bits(got.comm_weight), bits(want.comm_weight))
          << seed << "/" << c;
      EXPECT_EQ(bits(got.utility), bits(want.utility)) << seed << "/" << c;
      EXPECT_EQ(bits(got.objective), bits(want.objective))
          << seed << "/" << c;
      ++candidates;
      // Coverage: does a running job on the candidate's machines route a
      // flow over a link the candidate's flows use too?
      std::vector<topo::LinkId> links;
      for (const jobgraph::CommEdge& edge : request.comm_graph.edges()) {
        const topo::GpuPath& path =
            topology.gpu_path(gpus[static_cast<size_t>(edge.a)],
                              gpus[static_cast<size_t>(edge.b)]);
        links.insert(links.end(), path.links.begin(), path.links.end());
      }
      bool shared = false;
      for (const auto& [id, job] : state.running_jobs()) {
        for (const topo::LinkId link : job.flow_links) {
          shared = shared ||
                   std::find(links.begin(), links.end(), link) != links.end();
        }
      }
      if (shared) ++shared_link_candidates;
    }
  }
  EXPECT_GT(candidates, 200);
  EXPECT_GT(shared_link_candidates, 50);
}

}  // namespace
}  // namespace gts::sched
