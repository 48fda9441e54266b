#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "exp/figures.hpp"
#include "perf/model.hpp"
#include "perf/params.hpp"
#include "perf/profile.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"

namespace gts::perf {
namespace {

using jobgraph::BatchClass;
using jobgraph::JobRequest;
using jobgraph::NeuralNet;

class PerfModelTest : public ::testing::Test {
 protected:
  topo::TopologyGraph minsky_ = topo::builders::power8_minsky();
  DlWorkloadModel model_{CalibrationParams::paper_minsky()};
};

// ----------------------------------------------------- path classes -------

TEST_F(PerfModelTest, PathClassification) {
  EXPECT_EQ(model_.classify_path(minsky_, 0, 1), PathClass::kPeerToPeer);
  EXPECT_EQ(model_.classify_path(minsky_, 0, 2),
            PathClass::kCrossSocketNvlinkHost);

  const topo::TopologyGraph pcie = topo::builders::power8_pcie();
  EXPECT_EQ(model_.classify_path(pcie, 0, 1), PathClass::kSameSocketHost);
  EXPECT_EQ(model_.classify_path(pcie, 0, 2),
            PathClass::kCrossSocketPcieHost);

  const topo::TopologyGraph cluster =
      topo::builders::cluster(2, topo::builders::MachineShape::kPower8Minsky);
  EXPECT_EQ(model_.classify_path(cluster, 0, 4), PathClass::kCrossMachine);
}

TEST_F(PerfModelTest, EffectiveBandwidthPackIsPeakNvlink) {
  EXPECT_DOUBLE_EQ(model_.effective_bandwidth(minsky_, 0, 1, nullptr), 40.0);
}

TEST_F(PerfModelTest, EffectiveBandwidthSpreadIsDiscountedSmpBus) {
  const double bw = model_.effective_bandwidth(minsky_, 0, 2, nullptr);
  EXPECT_NEAR(bw, 32.0 * 0.86, 1e-9);
}

TEST_F(PerfModelTest, LinkSharingHalvesBandwidth) {
  LinkFlows flows(static_cast<size_t>(minsky_.link_count()), 0);
  // One foreign flow on every link of the 0-1 path.
  for (const topo::LinkId link : minsky_.gpu_path(0, 1).links) {
    flows[static_cast<size_t>(link)] = 1;
  }
  EXPECT_DOUBLE_EQ(model_.effective_bandwidth(minsky_, 0, 1, &flows), 20.0);
}

// ----------------------------------------------------- Fig. 3 anchors -----

TEST_F(PerfModelTest, AlexNetComputeAnchors) {
  // ~1 s per 40 iterations at batch 1; ~66 s at batch 128 (Section 3.2).
  const double batch1 = model_.compute_time(NeuralNet::kAlexNet, 1) * 40;
  const double batch128 = model_.compute_time(NeuralNet::kAlexNet, 128) * 40;
  EXPECT_NEAR(batch1, 1.0, 0.15);
  EXPECT_NEAR(batch128, 66.0, 2.0);
}

TEST_F(PerfModelTest, AlexNetCommAnchorConstantInBatch) {
  // ~2 s per 40 iterations regardless of batch size (pack placement).
  const std::vector<int> pack = {0, 1};
  for (const int batch : {1, 4, 64, 128}) {
    const JobRequest job =
        JobRequest::make_dl(0, 0.0, NeuralNet::kAlexNet, batch, 2, 0.0, 40);
    const IterationBreakdown step = model_.iteration(job, pack, minsky_);
    EXPECT_NEAR(step.comm_s * 40, 2.0, 0.2) << "batch " << batch;
  }
}

TEST_F(PerfModelTest, ComputeMonotoneInBatch) {
  for (int n = 0; n < jobgraph::kNeuralNetCount; ++n) {
    const auto nn = static_cast<NeuralNet>(n);
    double last = 0.0;
    for (const int batch : jobgraph::kBatchSweep) {
      const double t = model_.compute_time(nn, batch);
      EXPECT_GT(t, last);
      last = t;
    }
  }
}

// ----------------------------------------------------- Fig. 4 shape -------

TEST_F(PerfModelTest, PackNeverSlowerThanSpread) {
  const auto rows = exp::fig4_pack_vs_spread(model_, minsky_);
  for (const auto& row : rows) {
    EXPECT_GE(row.speedup, 0.999)
        << jobgraph::to_string(row.nn) << " batch " << row.batch_size;
  }
}

TEST_F(PerfModelTest, AlexNetSpeedupAnchors) {
  const auto rows = exp::fig4_pack_vs_spread(model_, minsky_);
  for (const auto& row : rows) {
    if (row.nn != NeuralNet::kAlexNet) continue;
    if (row.batch_size <= 2) {
      EXPECT_GT(row.speedup, 1.20) << "batch " << row.batch_size;
      EXPECT_LT(row.speedup, 1.40) << "batch " << row.batch_size;
    }
    if (row.batch_size >= 64) {
      EXPECT_LT(row.speedup, 1.05) << "batch " << row.batch_size;
    }
  }
}

TEST_F(PerfModelTest, SpeedupMonotoneDecreasingInBatch) {
  const auto rows = exp::fig4_pack_vs_spread(model_, minsky_);
  for (int n = 0; n < jobgraph::kNeuralNetCount; ++n) {
    const auto nn = static_cast<NeuralNet>(n);
    double last = 10.0;
    for (const auto& row : rows) {
      if (row.nn != nn) continue;
      EXPECT_LE(row.speedup, last + 1e-9);
      last = row.speedup;
    }
  }
}

TEST_F(PerfModelTest, GoogLeNetNearlyFlat) {
  const auto rows = exp::fig4_pack_vs_spread(model_, minsky_);
  for (const auto& row : rows) {
    if (row.nn != NeuralNet::kGoogLeNet) continue;
    EXPECT_LT(row.speedup, 1.10) << "batch " << row.batch_size;
  }
}

// ------------------------------------------- Section 3.2 PCI-e prose ------

TEST_F(PerfModelTest, PcieSpeedupsLowerThanNvlinkAtEveryBatch) {
  const topo::TopologyGraph pcie = topo::builders::power8_pcie();
  const DlWorkloadModel k80(CalibrationParams::paper_k80());
  const auto nv_rows = exp::fig4_pack_vs_spread(model_, minsky_);
  const auto pc_rows = exp::fig4_pack_vs_spread(k80, pcie);
  for (size_t i = 0; i < nv_rows.size(); ++i) {
    if (nv_rows[i].nn != NeuralNet::kAlexNet) continue;
    if (nv_rows[i].batch_size > 8) continue;
    EXPECT_GT(nv_rows[i].speedup, pc_rows[i].speedup)
        << "batch " << nv_rows[i].batch_size;
    // Both still show a meaningful pack benefit at tiny batches.
    if (nv_rows[i].batch_size <= 2) {
      EXPECT_GT(pc_rows[i].speedup, 1.10);
    }
  }
}

// ----------------------------------------------------- Fig. 5 shape -------

TEST_F(PerfModelTest, BandwidthSeriesSmallBatchBeatsLarge) {
  const auto tiny = exp::fig5_bandwidth_series(model_, minsky_, 1, 50.0, 0.5);
  const auto big = exp::fig5_bandwidth_series(model_, minsky_, 128, 50.0, 0.5);
  double tiny_mean = 0.0;
  double tiny_peak = 0.0;
  for (const auto& p : tiny) {
    tiny_mean += p.gbps;
    tiny_peak = std::max(tiny_peak, p.gbps);
  }
  tiny_mean /= static_cast<double>(tiny.size());
  double big_mean = 0.0;
  for (const auto& p : big) big_mean += p.gbps;
  big_mean /= static_cast<double>(big.size());

  // Tiny batches hammer the link (~40 GB/s peaks); big batches idle at a
  // few GB/s (Fig. 5).
  EXPECT_NEAR(tiny_peak, 40.0, 1.0);
  EXPECT_GT(tiny_mean, 4.0 * big_mean);
  EXPECT_LT(big_mean, 8.0);
}

// ----------------------------------------------------- Fig. 6 matrix ------

TEST_F(PerfModelTest, CollocationMatrixAnchors) {
  using exp::fig6_collocation_slowdown;
  const double tiny_tiny = fig6_collocation_slowdown(
      model_, minsky_, BatchClass::kTiny, BatchClass::kTiny);
  const double tiny_big = fig6_collocation_slowdown(
      model_, minsky_, BatchClass::kTiny, BatchClass::kBig);
  const double small_big = fig6_collocation_slowdown(
      model_, minsky_, BatchClass::kSmall, BatchClass::kBig);
  const double big_big = fig6_collocation_slowdown(
      model_, minsky_, BatchClass::kBig, BatchClass::kBig);
  EXPECT_NEAR(tiny_tiny, 0.30, 0.03);
  EXPECT_NEAR(tiny_big, 0.24, 0.03);
  EXPECT_NEAR(small_big, 0.21, 0.03);
  EXPECT_NEAR(big_big, 0.0, 0.01);
}

TEST_F(PerfModelTest, CollocationMatrixMonotone) {
  // More communication (smaller batch) on either side -> more slowdown.
  for (int mine = 0; mine < jobgraph::kBatchClassCount; ++mine) {
    for (int other = 1; other < jobgraph::kBatchClassCount; ++other) {
      const double left = exp::fig6_collocation_slowdown(
          model_, minsky_, static_cast<BatchClass>(mine),
          static_cast<BatchClass>(other - 1));
      const double right = exp::fig6_collocation_slowdown(
          model_, minsky_, static_cast<BatchClass>(mine),
          static_cast<BatchClass>(other));
      EXPECT_GE(left, right - 1e-9);
    }
  }
}

TEST_F(PerfModelTest, InterferenceFactorComposition) {
  const CoRunner one[] = {{BatchClass::kTiny, false}};
  const CoRunner two[] = {{BatchClass::kTiny, false},
                          {BatchClass::kTiny, false}};
  const double f1 = model_.interference_factor(BatchClass::kTiny, one);
  const double f2 = model_.interference_factor(BatchClass::kTiny, two);
  EXPECT_DOUBLE_EQ(f1, 1.30);
  EXPECT_DOUBLE_EQ(f2, 1.30 * 1.30);
  EXPECT_DOUBLE_EQ(model_.interference_factor(BatchClass::kTiny, {}), 1.0);
}

TEST_F(PerfModelTest, SameSocketInterferenceIsWorse) {
  const CoRunner far[] = {{BatchClass::kTiny, false}};
  const CoRunner near[] = {{BatchClass::kTiny, true}};
  EXPECT_GT(model_.interference_factor(BatchClass::kTiny, near),
            model_.interference_factor(BatchClass::kTiny, far));
}

// ------------------------------------------------------------ profile -----

TEST_F(PerfModelTest, PackPlacementFillsSocketsInOrder) {
  EXPECT_EQ(pack_placement(minsky_, 2), (std::vector<int>{0, 1}));
  EXPECT_EQ(pack_placement(minsky_, 3), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(pack_placement(minsky_, 4), (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(PerfModelTest, SpreadPlacementRoundRobinsSockets) {
  EXPECT_EQ(spread_placement(minsky_, 2), (std::vector<int>{0, 2}));
  EXPECT_EQ(spread_placement(minsky_, 4), (std::vector<int>{0, 2, 1, 3}));
}

// Pinned placements on three Minsky machines (12 GPUs) for k = 1..13:
// pack fills machine by machine; spread takes one GPU from every socket of
// the cluster per round, so a 4-GPU spread spans two machines and rounds
// past the first start at k = 7. k = 13 exceeds the cluster and comes
// back one short.
TEST(ProfilePlacementTest, PackAndSpreadArePinnedOnThreeMachines) {
  const topo::TopologyGraph cluster =
      topo::builders::cluster(3, topo::builders::MachineShape::kPower8Minsky);
  const std::vector<std::vector<int>> pack = {
      {0},
      {0, 1},
      {0, 1, 2},
      {0, 1, 2, 3},
      {0, 1, 2, 3, 4},
      {0, 1, 2, 3, 4, 5},
      {0, 1, 2, 3, 4, 5, 6},
      {0, 1, 2, 3, 4, 5, 6, 7},
      {0, 1, 2, 3, 4, 5, 6, 7, 8},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
  };
  const std::vector<std::vector<int>> spread = {
      {0},
      {0, 2},
      {0, 2, 4},
      {0, 2, 4, 6},
      {0, 2, 4, 6, 8},
      {0, 2, 4, 6, 8, 10},
      {0, 2, 4, 6, 8, 10, 1},
      {0, 2, 4, 6, 8, 10, 1, 3},
      {0, 2, 4, 6, 8, 10, 1, 3, 5},
      {0, 2, 4, 6, 8, 10, 1, 3, 5, 7},
      {0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9},
      {0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11},
      {0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11},
  };
  for (int k = 1; k <= 13; ++k) {
    EXPECT_EQ(pack_placement(cluster, k), pack[static_cast<size_t>(k - 1)])
        << "k=" << k;
    EXPECT_EQ(spread_placement(cluster, k), spread[static_cast<size_t>(k - 1)])
        << "k=" << k;
  }
}

TEST_F(PerfModelTest, ProfileAnchorsConsistent) {
  const JobRequest job = make_profiled_dl(0, 0.0, NeuralNet::kAlexNet, 1, 2,
                                          0.5, model_, minsky_, 100);
  EXPECT_GT(job.profile.solo_time_pack, 0.0);
  // The model makes the spread placement slower than the pack anchor.
  EXPECT_GT(model_.completion_time(job, spread_placement(minsky_, 2), minsky_),
            job.profile.solo_time_pack);
  // The slowdown row mirrors the calibration matrix.
  EXPECT_DOUBLE_EQ(job.profile.collocation_slowdown[0], 0.30);
  EXPECT_DOUBLE_EQ(job.profile.collocation_slowdown[3], 0.24);
}

TEST_F(PerfModelTest, CompletionTimeScalesWithIterations) {
  const JobRequest short_job =
      JobRequest::make_dl(0, 0.0, NeuralNet::kAlexNet, 1, 2, 0.0, 100);
  const JobRequest long_job =
      JobRequest::make_dl(0, 0.0, NeuralNet::kAlexNet, 1, 2, 0.0, 200);
  const std::vector<int> pack = {0, 1};
  EXPECT_NEAR(model_.completion_time(long_job, pack, minsky_),
              2.0 * model_.completion_time(short_job, pack, minsky_), 1e-9);
}

TEST_F(PerfModelTest, SingleGpuJobHasNoCommTime) {
  const JobRequest job =
      JobRequest::make_dl(0, 0.0, NeuralNet::kAlexNet, 1, 1, 0.0, 100);
  const std::vector<int> gpus = {0};
  const IterationBreakdown step = model_.iteration(job, gpus, minsky_);
  EXPECT_DOUBLE_EQ(step.comm_s, 0.0);
  EXPECT_TRUE(step.all_pairs_p2p);
}

// iteration() routes each comm pair once and derives its bandwidth, class
// and P2P flag from that one path; the result must equal the per-edge
// composition of the public effective_bandwidth / classify_path queries,
// under foreign flows and a signed FlowDelta, on dense and hierarchical
// path tables.
TEST_F(PerfModelTest, IterationMatchesPerEdgeReference) {
  using topo::builders::MachineShape;
  std::vector<MachineShape> shapes;
  for (int i = 0; i < 5; ++i) {
    shapes.insert(shapes.end(), {MachineShape::kPower8Minsky,
                                 MachineShape::kDgx1,
                                 MachineShape::kPower8Pcie});
  }
  const topo::TopologyGraph hierarchical =
      topo::builders::mixed_cluster(shapes);  // 80 GPUs
  const topo::TopologyGraph dense = topo::builders::mixed_cluster(
      {MachineShape::kPower8Minsky, MachineShape::kDgx1,
       MachineShape::kPower8Pcie});  // 16 GPUs
  util::Rng rng(20261019);
  int compared = 0;
  for (const topo::TopologyGraph* graph : {&hierarchical, &dense}) {
    const topo::TopologyGraph& g = *graph;
    for (int trial = 0; trial < 200; ++trial) {
      // Distinct random GPUs, often across machines.
      const int tasks = 2 + static_cast<int>(rng.uniform_int(5));
      std::vector<int> gpus;
      while (static_cast<int>(gpus.size()) < tasks) {
        const int gpu = static_cast<int>(
            rng.uniform_int(static_cast<std::uint64_t>(g.gpu_count())));
        if (std::find(gpus.begin(), gpus.end(), gpu) == gpus.end()) {
          gpus.push_back(gpu);
        }
      }
      JobRequest job = JobRequest::make_dl(
          trial, 0.0, static_cast<NeuralNet>(trial % jobgraph::kNeuralNetCount),
          1 << (trial % 8), tasks, 0.0, 10);
      if (trial % 3 == 1) job.comm_graph = jobgraph::JobGraph::ring(tasks, 2.0);
      if (trial % 3 == 2) {
        jobgraph::JobGraph skewed(tasks);
        for (int a = 0; a + 1 < tasks; ++a) {
          skewed.add_edge(a, a + 1, rng.uniform(0.5, 5.0));
        }
        job.comm_graph = skewed;
      }
      // Foreign flows, and a signed delta that keeps every count >= 0.
      LinkFlows flows(static_cast<size_t>(g.link_count()), 0);
      for (int& f : flows) f = static_cast<int>(rng.uniform_int(4));
      std::vector<std::pair<topo::LinkId, int>> delta;
      for (topo::LinkId link = 0; link < g.link_count(); ++link) {
        if (rng.uniform() < 0.3) {
          const int f = flows[static_cast<size_t>(link)];
          delta.emplace_back(link, static_cast<int>(rng.uniform_int(
                                       static_cast<std::uint64_t>(f + 3))) -
                                       2);
        }
      }
      for (const LinkFlows* extra : {static_cast<const LinkFlows*>(nullptr),
                                     static_cast<const LinkFlows*>(&flows)}) {
        const FlowDelta exclude =
            extra == nullptr ? FlowDelta{} : FlowDelta{delta};
        const IterationBreakdown got =
            model_.iteration(job, gpus, g, extra, {}, exclude);

        // Reference: the per-edge composition of the public queries.
        const NnParams& nn =
            model_.params().nn[static_cast<size_t>(job.profile.nn)];
        const double reference_weight =
            job.profile.comm_weight > 0.0 ? job.profile.comm_weight : 1.0;
        double worst_time = 0.0;
        PathClass worst_path = PathClass::kPeerToPeer;
        double worst_bw = std::numeric_limits<double>::infinity();
        bool all_p2p = true;
        for (const jobgraph::CommEdge& edge : job.comm_graph.edges()) {
          const int a = gpus[static_cast<size_t>(edge.a)];
          const int b = gpus[static_cast<size_t>(edge.b)];
          const double bw = model_.effective_bandwidth(g, a, b, extra, exclude);
          if (bw <= 0.0) continue;
          const double pair_time =
              nn.grad_volume_gb * (edge.weight / reference_weight) / bw;
          if (pair_time > worst_time) {
            worst_time = pair_time;
            worst_path = model_.classify_path(g, a, b);
            worst_bw = bw;
          }
          if (!g.gpu_path(a, b).peer_to_peer) all_p2p = false;
        }
        EXPECT_EQ(got.worst_path, worst_path) << "trial " << trial;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.effective_bw_gbps),
                  std::bit_cast<std::uint64_t>(worst_bw))
            << "trial " << trial;
        EXPECT_EQ(got.all_pairs_p2p, all_p2p) << "trial " << trial;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.comm_s),
                  std::bit_cast<std::uint64_t>(worst_time))
            << "trial " << trial;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 800);
}

// Parameterized sweep: iteration time is strictly positive and finite for
// every NN / batch / placement combination.
struct SweepParam {
  int nn;
  int batch_size;
  bool pack;
};
class IterationSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(IterationSweepTest, TimesFiniteAndPositive) {
  const topo::TopologyGraph minsky = topo::builders::power8_minsky();
  const DlWorkloadModel model{CalibrationParams::paper_minsky()};
  const SweepParam p = GetParam();
  const JobRequest job = JobRequest::make_dl(
      0, 0.0, static_cast<NeuralNet>(p.nn), p.batch_size, 2, 0.0, 10);
  const std::vector<int> gpus = p.pack ? std::vector<int>{0, 1}
                                       : std::vector<int>{0, 2};
  const IterationBreakdown step = model.iteration(job, gpus, minsky);
  EXPECT_GT(step.total_s, 0.0);
  EXPECT_LT(step.total_s, 60.0);
  EXPECT_GT(step.compute_s, 0.0);
  EXPECT_GT(step.comm_s, 0.0);
  EXPECT_EQ(step.all_pairs_p2p, p.pack);
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  for (int nn = 0; nn < jobgraph::kNeuralNetCount; ++nn) {
    for (const int batch : jobgraph::kBatchSweep) {
      params.push_back({nn, batch, true});
      params.push_back({nn, batch, false});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, IterationSweepTest,
                         ::testing::ValuesIn(sweep_params()));

}  // namespace
}  // namespace gts::perf
