#include <gtest/gtest.h>

#include <set>

#include "k8s/shim.hpp"
#include "perf/profile.hpp"
#include "topo/builders.hpp"

namespace gts::k8s {
namespace {

using jobgraph::NeuralNet;
using topo::builders::MachineShape;

class K8sShimTest : public ::testing::Test {
 protected:
  topo::TopologyGraph cluster_ =
      topo::builders::cluster(3, MachineShape::kPower8Minsky);
  perf::DlWorkloadModel model_{perf::CalibrationParams::paper_minsky()};
  cluster::ClusterState state_{cluster_, model_};
  KubeTopologyScheduler shim_{cluster_, model_};

  GpuPodSpec pod(int gpus, const std::string& batch = "1",
                 const std::string& min_utility = "0.5") {
    GpuPodSpec spec;
    spec.name = "trainer";
    spec.gpu_request = gpus;
    spec.annotations["gts.io/nn"] = "AlexNet";
    spec.annotations["gts.io/batch-size"] = batch;
    spec.annotations["gts.io/min-utility"] = min_utility;
    return spec;
  }
};

TEST_F(K8sShimTest, PodTranslatesToProfiledJob) {
  const auto job = shim_.pod_to_job(pod(2, "4"), 1);
  ASSERT_TRUE(job.has_value()) << job.error().message;
  EXPECT_EQ(job->num_gpus, 2);
  EXPECT_EQ(job->profile.nn, NeuralNet::kAlexNet);
  EXPECT_EQ(job->profile.batch_size, 4);
  EXPECT_DOUBLE_EQ(job->min_utility, 0.5);
  EXPECT_TRUE(job->profile.single_node);
  EXPECT_GT(job->profile.solo_time_pack, 0.0);
  EXPECT_GT(job->profile.host_bw_demand_gbps, 0.0);
}

TEST_F(K8sShimTest, AnnotationFlagsApply) {
  GpuPodSpec spec = pod(2);
  spec.annotations["gts.io/multi-node"] = "true";
  spec.annotations["gts.io/anti-affinity"] = "true";
  const auto job = shim_.pod_to_job(spec, 1);
  ASSERT_TRUE(job.has_value());
  EXPECT_FALSE(job->profile.single_node);
  EXPECT_TRUE(job->profile.anti_collocate);
}

TEST_F(K8sShimTest, MalformedAnnotationsRejected) {
  GpuPodSpec bad_nn = pod(1);
  bad_nn.annotations["gts.io/nn"] = "transformer";
  EXPECT_FALSE(shim_.pod_to_job(bad_nn, 1).has_value());

  GpuPodSpec bad_batch = pod(1);
  bad_batch.annotations["gts.io/batch-size"] = "-3";
  EXPECT_FALSE(shim_.pod_to_job(bad_batch, 1).has_value());

  GpuPodSpec bad_utility = pod(1);
  bad_utility.annotations["gts.io/min-utility"] = "1.5";
  EXPECT_FALSE(shim_.pod_to_job(bad_utility, 1).has_value());

  GpuPodSpec no_gpus = pod(0);
  EXPECT_FALSE(shim_.pod_to_job(no_gpus, 1).has_value());
}

TEST_F(K8sShimTest, FilterChecksCapacity) {
  const auto job = shim_.pod_to_job(pod(2), 1);
  ASSERT_TRUE(job.has_value());
  EXPECT_TRUE(shim_.filter(*job, state_, 0));
  EXPECT_FALSE(shim_.filter(*job, state_, 99));  // no such node

  // Fill node 0's GPUs: Filter must fail there, pass elsewhere.
  state_.place(perf::make_profiled_dl(9, 0.0, NeuralNet::kGoogLeNet, 64, 4,
                                      0.0, model_, cluster_, 700),
               {0, 1, 2, 3}, 0.0);
  EXPECT_FALSE(shim_.filter(*job, state_, 0));
  EXPECT_TRUE(shim_.filter(*job, state_, 1));
}

TEST_F(K8sShimTest, ScoreRanksPackableNodesHigher) {
  const auto job = shim_.pod_to_job(pod(2, "1"), 1);
  ASSERT_TRUE(job.has_value());
  // Node 1: one GPU busy per socket -> only a cross-socket pair remains.
  state_.place(perf::make_profiled_dl(8, 0.0, NeuralNet::kGoogLeNet, 64, 1,
                                      0.0, model_, cluster_, 700),
               {4}, 0.0);
  state_.place(perf::make_profiled_dl(9, 0.0, NeuralNet::kGoogLeNet, 64, 1,
                                      0.0, model_, cluster_, 700),
               {6}, 0.0);
  const int fragmented = shim_.score(*job, state_, 1);
  const int empty = shim_.score(*job, state_, 2);
  EXPECT_GT(empty, fragmented);
  EXPECT_GE(fragmented, 0);
  EXPECT_LE(empty, 100);
}

TEST_F(K8sShimTest, BindReturnsDeviceAllocationAndEnv) {
  const auto job = shim_.pod_to_job(pod(2, "1"), 1);
  ASSERT_TRUE(job.has_value());
  const auto binding = shim_.bind(*job, state_);
  ASSERT_TRUE(binding.has_value());
  ASSERT_EQ(binding->device_ids.size(), 2u);
  // A single-node pod: both devices on one node.
  ASSERT_EQ(binding->nodes.size(), 2u);
  EXPECT_GE(binding->nodes[0], 0);
  EXPECT_EQ(binding->nodes[0], binding->nodes[1]);
  // Same socket on the chosen node -> local device ids are a socket pair.
  EXPECT_TRUE(cluster_.same_socket(binding->global_gpu_ids[0],
                                   binding->global_gpu_ids[1]));
  bool has_visible_devices = false;
  for (const auto& env : binding->environment) {
    if (env.rfind("CUDA_VISIBLE_DEVICES=", 0) == 0) has_visible_devices = true;
  }
  EXPECT_TRUE(has_visible_devices);
  EXPECT_GE(binding->score, 50.0);
}

// Pods that no single node hosts bind as TOPO-AWARE-P places them: an
// anti-affinity pod one device per node, a multi-node pod larger than any
// node across nodes. Filter passes a node for either, as Section 4.3's
// host rule asks only one free device and a bandwidth share of it.
TEST_F(K8sShimTest, BindsAntiAffinityAndMultiNodePods) {
  GpuPodSpec spread = pod(2, "1", "0.0");
  spread.annotations["gts.io/multi-node"] = "true";
  spread.annotations["gts.io/anti-affinity"] = "true";
  GpuPodSpec wide = pod(8, "1");
  wide.annotations["gts.io/multi-node"] = "true";
  for (const GpuPodSpec& spec : {spread, wide}) {
    const auto job = shim_.pod_to_job(spec, 1);
    ASSERT_TRUE(job.has_value()) << job.error().message;
    EXPECT_TRUE(shim_.filter(*job, state_, 0)) << spec.gpu_request;
    const auto binding = shim_.bind(*job, state_);
    ASSERT_TRUE(binding.has_value()) << spec.gpu_request;
    const size_t devices = static_cast<size_t>(spec.gpu_request);
    ASSERT_EQ(binding->global_gpu_ids.size(), devices);
    ASSERT_EQ(binding->device_ids.size(), devices);
    ASSERT_EQ(binding->nodes.size(), devices);
    for (size_t i = 0; i < devices; ++i) {
      EXPECT_EQ(binding->nodes[i],
                cluster_.machine_of_gpu(binding->global_gpu_ids[i]));
    }
    const std::set<int> nodes(binding->nodes.begin(), binding->nodes.end());
    if (job->profile.anti_collocate) {
      EXPECT_EQ(nodes.size(), devices);
    } else {
      EXPECT_GE(nodes.size(), 2u);
    }
  }
}

TEST_F(K8sShimTest, BindLeavesPodPendingBelowSlo) {
  // Leave only cross-socket pairs everywhere: binding a min-utility-0.5
  // pod must fail (Pending), while a 0.0-threshold pod binds.
  for (int machine = 0; machine < 3; ++machine) {
    const auto gpus = cluster_.gpus_of_machine(machine);
    state_.place(perf::make_profiled_dl(10 + machine * 2, 0.0,
                                        NeuralNet::kGoogLeNet, 64, 1, 0.0,
                                        model_, cluster_, 700),
                 {gpus[1]}, 0.0);
    state_.place(perf::make_profiled_dl(11 + machine * 2, 0.0,
                                        NeuralNet::kGoogLeNet, 64, 1, 0.0,
                                        model_, cluster_, 700),
                 {gpus[3]}, 0.0);
  }
  const auto strict = shim_.pod_to_job(pod(2, "1", "0.5"), 1);
  ASSERT_TRUE(strict.has_value());
  EXPECT_FALSE(shim_.bind(*strict, state_).has_value());

  const auto lax = shim_.pod_to_job(pod(2, "1", "0.0"), 2);
  ASSERT_TRUE(lax.has_value());
  EXPECT_TRUE(shim_.bind(*lax, state_).has_value());
}

}  // namespace
}  // namespace gts::k8s
