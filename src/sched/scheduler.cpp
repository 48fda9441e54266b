#include "sched/scheduler.hpp"

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
  std::vector<int> gpus;
  int machines = 0;
  for (int machine = 0; machine < state.topology().machine_count();
       ++machine) {
    if (!host_fits(request, state, machine)) continue;
    const std::vector<int> free = state.free_gpus_of_machine(machine);
    ++machines;
    gpus.insert(gpus.end(), free.begin(), free.end());
  }
  // An anti-collocated job takes one GPU per machine, so it needs k
  // machines; every other job needs k GPUs.
  const int supply = request.profile.anti_collocate
                         ? machines
                         : static_cast<int>(gpus.size());
  if (supply < request.num_gpus) return {};
  return gpus;
}

}  // namespace gts::sched
