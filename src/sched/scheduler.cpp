#include "sched/scheduler.hpp"

#include <algorithm>
#include <set>

#include "sched/greedy.hpp"
#include "sched/topo_aware.hpp"

namespace gts::sched {

std::string_view to_string(Policy policy) noexcept {
  switch (policy) {
    case Policy::kFcfs:
      return "FCFS";
    case Policy::kBestFit:
      return "BF";
    case Policy::kTopoAware:
      return "TOPO-AWARE";
    case Policy::kTopoAwareP:
      return "TOPO-AWARE-P";
  }
  return "?";
}

std::unique_ptr<Scheduler> make_scheduler(Policy policy,
                                          UtilityWeights weights) {
  switch (policy) {
    case Policy::kFcfs:
      return std::make_unique<FcfsScheduler>();
    case Policy::kBestFit:
      return std::make_unique<BestFitScheduler>();
    case Policy::kTopoAware:
      return std::make_unique<TopoAwareScheduler>(weights,
                                                  /*postpone=*/false);
    case Policy::kTopoAwareP:
      return std::make_unique<TopoAwareScheduler>(weights,
                                                  /*postpone=*/true);
  }
  return nullptr;
}

std::vector<int> filter_hosts(const jobgraph::JobRequest& request,
                              const cluster::ClusterState& state) {
  const topo::TopologyGraph& topology = state.topology();
  // Section 4.3 capacity constraints: enough GPUs (t_gpu <= p_gpu) and
  // enough host memory bandwidth (t_bw <= p_bw) on every candidate.
  const double demand = request.profile.host_bw_demand_gbps;

  if (request.profile.anti_collocate) {
    // One GPU per machine: keep machines with at least one free GPU; the
    // job needs num_gpus such machines. Each machine carries an even
    // share of the job's bandwidth demand.
    const double share = demand / std::max(1, request.num_gpus);
    std::vector<int> gpus;
    int machines_with_free = 0;
    for (int machine = 0; machine < topology.machine_count(); ++machine) {
      if (state.machine_free_count(machine) == 0 ||
          !state.host_bw_available(machine, share)) {
        continue;
      }
      const std::vector<int> free = state.free_gpus_of_machine(machine);
      ++machines_with_free;
      gpus.insert(gpus.end(), free.begin(), free.end());
    }
    if (machines_with_free < request.num_gpus) return {};
    return gpus;
  }

  if (request.profile.single_node) {
    // Only machines that can hold the whole job, GPUs and bandwidth.
    std::vector<int> gpus;
    for (int machine = 0; machine < topology.machine_count(); ++machine) {
      if (state.machine_free_count(machine) < request.num_gpus ||
          !state.host_bw_available(machine, demand)) {
        continue;
      }
      const std::vector<int> free = state.free_gpus_of_machine(machine);
      gpus.insert(gpus.end(), free.begin(), free.end());
    }
    return gpus;
  }

  // Multi-node-capable: any machine with both a free GPU and bandwidth
  // headroom for a proportional share contributes.
  const double share = demand / std::max(1, request.num_gpus);
  std::vector<int> gpus;
  for (int machine = 0; machine < topology.machine_count(); ++machine) {
    if (state.machine_free_count(machine) == 0 ||
        !state.host_bw_available(machine, share)) {
      continue;
    }
    const std::vector<int> free = state.free_gpus_of_machine(machine);
    gpus.insert(gpus.end(), free.begin(), free.end());
  }
  if (static_cast<int>(gpus.size()) < request.num_gpus) return {};
  return gpus;
}

}  // namespace gts::sched
