#include "sched/greedy.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/explain.hpp"
#include "obs/trace.hpp"

namespace gts::sched {

namespace {

/// Machines able to host the whole job, honoring the single-node
/// constraint; for multi-node-capable jobs a single machine is still
/// preferred, falling back to the global free list.
std::optional<Placement> place_on_machine_gpus(std::vector<int> gpus,
                                               int num_gpus) {
  if (static_cast<int>(gpus.size()) < num_gpus) return std::nullopt;
  gpus.resize(static_cast<size_t>(num_gpus));
  Placement placement;
  placement.gpus = std::move(gpus);
  if (obs::DecisionScope* scope = obs::DecisionScope::current()) {
    obs::ExplainCandidate candidate;
    candidate.gpus = placement.gpus;
    candidate.source = "greedy";
    scope->add_candidate(std::move(candidate));
  }
  return placement;
}

/// Anti-collocated jobs take one GPU per machine: the lowest free GPU of
/// each machine with one, visiting machines by id or, with
/// `tightest_first`, by free count and then id.
std::optional<Placement> place_one_per_machine(
    const jobgraph::JobRequest& request, const cluster::ClusterState& state,
    bool tightest_first) {
  std::vector<int> order(
      static_cast<size_t>(state.topology().machine_count()));
  std::iota(order.begin(), order.end(), 0);
  if (tightest_first) {
    std::stable_sort(order.begin(), order.end(), [&state](int a, int b) {
      return state.machine_free_count(a) < state.machine_free_count(b);
    });
  }
  std::vector<int> gpus;
  for (const int machine : order) {
    if (static_cast<int>(gpus.size()) >= request.num_gpus) break;
    if (state.machine_free_count(machine) == 0) continue;
    const std::vector<int> free = state.free_gpus_of_machine(machine);
    gpus.push_back(*std::min_element(free.begin(), free.end()));
  }
  return place_on_machine_gpus(std::move(gpus), request.num_gpus);
}

}  // namespace

std::optional<Placement> FcfsScheduler::place(
    const jobgraph::JobRequest& request, const cluster::ClusterState& state) {
  GTS_TRACE_SPAN(obs::kSched, "fcfs.place");
  const topo::TopologyGraph& topology = state.topology();
  if (request.profile.anti_collocate) {
    return place_one_per_machine(request, state, /*tightest_first=*/false);
  }
  // First machine that fits, lowest GPU ids first.
  for (int machine = 0; machine < topology.machine_count(); ++machine) {
    if (state.machine_free_count(machine) < request.num_gpus) continue;
    std::vector<int> free = state.free_gpus_of_machine(machine);
    std::sort(free.begin(), free.end());
    if (auto placement = place_on_machine_gpus(std::move(free),
                                               request.num_gpus)) {
      return placement;
    }
  }
  if (!request.profile.single_node) {
    std::vector<int> free = state.free_gpus();
    std::sort(free.begin(), free.end());
    return place_on_machine_gpus(std::move(free), request.num_gpus);
  }
  return std::nullopt;
}

std::optional<Placement> BestFitScheduler::place(
    const jobgraph::JobRequest& request, const cluster::ClusterState& state) {
  GTS_TRACE_SPAN(obs::kSched, "bestfit.place");
  const topo::TopologyGraph& topology = state.topology();
  if (request.profile.anti_collocate) {
    return place_one_per_machine(request, state, /*tightest_first=*/true);
  }

  // Tightest machine that fits.
  int best_machine = -1;
  int best_free = std::numeric_limits<int>::max();
  for (int machine = 0; machine < topology.machine_count(); ++machine) {
    const int free = state.machine_free_count(machine);
    if (free >= request.num_gpus && free < best_free) {
      best_free = free;
      best_machine = machine;
    }
  }
  if (best_machine < 0) {
    if (!request.profile.single_node) {
      std::vector<int> free = state.free_gpus();
      std::sort(free.begin(), free.end());
      return place_on_machine_gpus(std::move(free), request.num_gpus);
    }
    return std::nullopt;
  }

  // Inside the machine: GPUs from the most-used sockets first (bin
  // packing over domains), ties by socket id then GPU id.
  struct SocketLoad {
    int socket;
    int free;
    std::vector<int> free_gpus;
  };
  std::vector<SocketLoad> sockets;
  const int socket_count = topology.sockets_of_machine(best_machine);
  for (int socket = 0; socket < socket_count; ++socket) {
    SocketLoad load{socket, 0, {}};
    for (const int gpu : topology.gpus_of_socket(best_machine, socket)) {
      if (state.gpu_free(gpu)) {
        load.free_gpus.push_back(gpu);
      }
    }
    load.free = static_cast<int>(load.free_gpus.size());
    if (load.free > 0) sockets.push_back(std::move(load));
  }
  std::stable_sort(sockets.begin(), sockets.end(),
                   [](const SocketLoad& a, const SocketLoad& b) {
                     return a.free < b.free;  // most used (fewest free) first
                   });
  std::vector<int> gpus;
  for (const SocketLoad& load : sockets) {
    for (const int gpu : load.free_gpus) {
      if (static_cast<int>(gpus.size()) >= request.num_gpus) break;
      gpus.push_back(gpu);
    }
  }
  return place_on_machine_gpus(std::move(gpus), request.num_gpus);
}

}  // namespace gts::sched
