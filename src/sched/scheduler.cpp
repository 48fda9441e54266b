#include "sched/scheduler.hpp"

#include <algorithm>

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
  // enough host memory bandwidth (t_bw <= p_bw) on every candidate. A
  // single-node job needs one machine for all of it; any other job takes
  // GPUs from several machines, each carrying an even share of the
  // bandwidth demand.
  const jobgraph::JobProfile& profile = request.profile;
  const int k = request.num_gpus;
  const bool whole_job = profile.single_node && !profile.anti_collocate;
  const int min_free = whole_job ? k : 1;
  const double demand = whole_job
                            ? profile.host_bw_demand_gbps
                            : profile.host_bw_demand_gbps / std::max(1, k);
  std::vector<int> gpus;
  int machines = 0;
  for (int machine = 0; machine < topology.machine_count(); ++machine) {
    if (state.machine_free_count(machine) < min_free ||
        !state.host_bw_available(machine, demand)) {
      continue;
    }
    const std::vector<int> free = state.free_gpus_of_machine(machine);
    ++machines;
    gpus.insert(gpus.end(), free.begin(), free.end());
  }
  // An anti-collocated job takes one GPU per machine, so it needs k
  // machines; every other job needs k GPUs.
  const int supply =
      profile.anti_collocate ? machines : static_cast<int>(gpus.size());
  if (supply < k) return {};
  return gpus;
}

}  // namespace gts::sched
