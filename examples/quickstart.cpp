// Quickstart: build a Power8 topology, describe a 2-GPU deep-learning
// job, ask the topology-aware scheduler for a placement, and inspect the
// decision. This is the minimal end-to-end tour of the public API.
#include <cstdio>

#include "cluster/state.hpp"
#include "perf/profile.hpp"
#include "proto/enforcement.hpp"
#include "sched/topo_aware.hpp"
#include "topo/builders.hpp"

int main() {
  using namespace gts;

  // 1. The physical machine: an IBM Power8 "Minsky" with 4 Tesla P100s.
  const topo::TopologyGraph machine = topo::builders::power8_minsky();
  std::printf("Machine: %d GPUs across %d sockets\n", machine.gpu_count(),
              machine.sockets_of_machine(0));

  // 2. The performance model calibrated against the paper's measurements.
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());

  // 3. Cluster state: place a 1-GPU job to create some background load.
  cluster::ClusterState state(machine, model);
  const jobgraph::JobRequest background = perf::make_profiled_dl(
      /*id=*/0, /*arrival=*/0.0, jobgraph::NeuralNet::kGoogLeNet,
      /*batch=*/16, /*gpus=*/1, /*min_utility=*/0.3, model, machine);
  state.place(background, {0}, /*now=*/0.0);
  std::printf("Background job occupies GPU0 (socket 0)\n");

  // 4. A communication-heavy 2-GPU AlexNet job arrives.
  const jobgraph::JobRequest job = perf::make_profiled_dl(
      /*id=*/1, /*arrival=*/10.0, jobgraph::NeuralNet::kAlexNet,
      /*batch=*/1, /*gpus=*/2, /*min_utility=*/0.5, model, machine);
  std::printf("Job 1: %s, batch %d, %d GPUs, min utility %.1f\n",
              std::string(jobgraph::to_string(job.profile.nn)).c_str(),
              job.profile.batch_size, job.num_gpus, job.min_utility);

  // 5. Ask TOPO-AWARE-P for a placement.
  sched::TopoAwareScheduler scheduler({}, /*postpone=*/true);
  const auto placement = scheduler.place(job, state);
  if (!placement) {
    std::printf("Job postponed: no allocation meets its utility threshold\n");
    return 0;
  }
  std::printf("Placement: GPUs");
  for (const int gpu : placement->gpus) std::printf(" %d", gpu);
  std::printf(" (utility %.2f, %s)\n", placement->utility,
              machine.same_socket(placement->gpus[0], placement->gpus[1])
                  ? "same socket, P2P over NVLink"
                  : "cross socket");

  // 6. What the prototype would export before launching Caffe (Sec. 5.1).
  const proto::EnforcementPlan plan =
      proto::make_enforcement_plan(machine, placement->gpus);
  std::printf("Launch recipe:\n");
  for (const auto& env : plan.environment) {
    std::printf("  export %s\n", env.c_str());
  }
  if (!plan.command_prefix.empty()) {
    std::printf("  %s caffe train ...\n", plan.command_prefix.c_str());
  }

  // 7. Predicted performance on this placement.
  cluster::CoRunnerScratch scratch;
  const perf::IterationBreakdown step =
      state.predict_iteration(job, placement->gpus, scratch);
  std::printf(
      "Predicted iteration: %.1f ms compute + %.1f ms comm, interference "
      "x%.2f => %.1f ms/iter\n",
      step.compute_s * 1e3, step.comm_s * 1e3, step.interference_factor,
      step.total_s * 1e3);
  return 0;
}
