#include "sched/greedy.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include "obs/explain.hpp"
#include "obs/trace.hpp"

namespace gts::sched {

namespace {

/// The first `num_gpus` of `gpus`, or nullopt when there are fewer.
std::optional<Placement> take_first(std::vector<int> gpus, int num_gpus) {
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

/// A job no single machine can host: a multi-node one takes the lowest-id
/// free GPUs of the cluster; a single-node one waits.
std::optional<Placement> place_spanning(const jobgraph::JobRequest& request,
                                        const cluster::ClusterState& state) {
  if (request.profile.single_node) return std::nullopt;
  return take_first(state.free_gpus(), request.num_gpus);
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
    gpus.push_back(state.free_gpus_of_machine(machine).front());
  }
  return take_first(std::move(gpus), request.num_gpus);
}

}  // namespace

std::optional<Placement> FcfsScheduler::place(
    const jobgraph::JobRequest& request, const cluster::ClusterState& state) {
  GTS_TRACE_SPAN(obs::kSched, "fcfs.place");
  if (request.profile.anti_collocate) {
    return place_one_per_machine(request, state, /*tightest_first=*/false);
  }
  // First machine that fits, lowest GPU ids first.
  for (int machine = 0; machine < state.topology().machine_count();
       ++machine) {
    if (state.machine_free_count(machine) >= request.num_gpus) {
      return take_first(state.free_gpus_of_machine(machine),
                        request.num_gpus);
    }
  }
  return place_spanning(request, state);
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
  if (best_machine < 0) return place_spanning(request, state);

  // Inside the machine: GPUs from the most-used sockets first (bin
  // packing over domains), ties by socket id then GPU id.
  const std::span<const int> socket_free =
      state.socket_free_counts(best_machine);
  std::vector<int> sockets(socket_free.size());
  std::iota(sockets.begin(), sockets.end(), 0);
  std::stable_sort(sockets.begin(), sockets.end(), [&](int a, int b) {
    return socket_free[static_cast<size_t>(a)] <
           socket_free[static_cast<size_t>(b)];
  });
  std::vector<int> gpus;
  for (const int socket : sockets) {
    for (const int gpu : topology.gpus_of_socket(best_machine, socket)) {
      if (state.gpu_free(gpu)) gpus.push_back(gpu);
    }
  }
  return take_first(std::move(gpus), request.num_gpus);
}

}  // namespace gts::sched
