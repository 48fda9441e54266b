#include "perf/profile.hpp"

#include <algorithm>

namespace gts::perf {

std::vector<int> pack_placement(const topo::TopologyGraph& topology,
                                int num_gpus) {
  // Fill socket 0 of machine 0, then socket 1, ... then machine 1.
  std::vector<int> gpus;
  for (int machine = 0; machine < topology.machine_count() &&
                        static_cast<int>(gpus.size()) < num_gpus;
       ++machine) {
    const int sockets = topology.sockets_of_machine(machine);
    for (int socket = 0; socket < sockets &&
                         static_cast<int>(gpus.size()) < num_gpus;
         ++socket) {
      for (const int gpu : topology.gpus_of_socket(machine, socket)) {
        if (static_cast<int>(gpus.size()) >= num_gpus) break;
        gpus.push_back(gpu);
      }
    }
  }
  return gpus;
}

std::vector<int> spread_placement(const topo::TopologyGraph& topology,
                                  int num_gpus) {
  // Cursor-major across every socket of the cluster: the first GPU of each
  // socket in (machine, socket) order, then the second GPU of each, and so
  // on. A 4-GPU spread on Minsky machines is m0s0[0], m0s1[0], m1s0[0],
  // m1s1[0], which spans two machines. The walk stops once `num_gpus` are
  // taken, so it costs O(k) sockets, not O(cluster).
  std::vector<int> gpus;
  const auto full = [&] { return static_cast<int>(gpus.size()) >= num_gpus; };
  for (size_t cursor = 0; !full(); ++cursor) {
    bool progressed = false;
    for (int machine = 0; machine < topology.machine_count() && !full();
         ++machine) {
      const int sockets = topology.sockets_of_machine(machine);
      for (int socket = 0; socket < sockets && !full(); ++socket) {
        const std::vector<int>& pool = topology.gpus_of_socket(machine, socket);
        if (cursor < pool.size()) {
          gpus.push_back(pool[cursor]);
          progressed = true;
        }
      }
    }
    if (!progressed) break;  // fewer GPUs than requested exist
  }
  return gpus;
}

void fill_profile(jobgraph::JobRequest& request, const DlWorkloadModel& model,
                  const topo::TopologyGraph& topology) {
  const std::vector<int> pack = pack_placement(topology, request.num_gpus);
  if (static_cast<int>(pack.size()) == request.num_gpus) {
    request.profile.solo_time_pack =
        model.completion_time(request, pack, topology);
  }
  for (int other = 0; other < jobgraph::kBatchClassCount; ++other) {
    request.profile.collocation_slowdown[static_cast<size_t>(other)] =
        model.params()
            .interference[static_cast<size_t>(request.profile.batch)]
                         [static_cast<size_t>(other)];
  }
  if (static_cast<int>(pack.size()) == request.num_gpus) {
    request.profile.host_bw_demand_gbps =
        model.average_link_bandwidth(request, pack, topology);
  }
}

jobgraph::JobRequest make_profiled_dl(int id, double arrival_time,
                                      jobgraph::NeuralNet nn, int batch_size,
                                      int num_gpus, double min_utility,
                                      const DlWorkloadModel& model,
                                      const topo::TopologyGraph& topology,
                                      long long iterations) {
  jobgraph::JobRequest request = jobgraph::JobRequest::make_dl(
      id, arrival_time, nn, batch_size, num_gpus, min_utility, iterations);
  fill_profile(request, model, topology);
  return request;
}

}  // namespace gts::perf
