#include "check/audit.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "util/strings.hpp"

namespace gts::check {
namespace {

constexpr double kEps = 1e-6;

/// Deterministic GPU pair sample: exhaustive up to `dense_limit` GPUs,
/// otherwise consecutive pairs, mirrored pairs, and a strided fan from
/// GPU 0 — enough to cover intra-socket, intra-machine, and cross-machine
/// routes on every builder topology without O(G^2) blowup.
std::vector<std::pair<int, int>> sample_gpu_pairs(int gpu_count,
                                                  int dense_limit = 128) {
  std::vector<std::pair<int, int>> pairs;
  if (gpu_count <= dense_limit) {
    for (int a = 0; a < gpu_count; ++a) {
      for (int b = a + 1; b < gpu_count; ++b) pairs.emplace_back(a, b);
    }
    return pairs;
  }
  for (int a = 0; a + 1 < gpu_count; ++a) pairs.emplace_back(a, a + 1);
  for (int a = 0; a < gpu_count / 2; ++a) {
    if (a != gpu_count - 1 - a) pairs.emplace_back(a, gpu_count - 1 - a);
  }
  const int stride = std::max(1, gpu_count / 64);
  for (int b = stride; b < gpu_count; b += stride) pairs.emplace_back(0, b);
  return pairs;
}

}  // namespace

util::Status validate(const topo::TopologyGraph& topology) {
  if (const util::Status base = topology.validate(); !base.is_ok()) {
    return base;
  }
  const int gpus = topology.gpu_count();
  for (const auto& [a, b] : sample_gpu_pairs(gpus)) {
    const double forward = topology.gpu_distance(a, b);
    const double backward = topology.gpu_distance(b, a);
    if (std::abs(forward - backward) > kEps) {
      return util::Error{util::fmt(
          "topology: asymmetric distance {}<->{}: {} vs {}", a, b, forward,
          backward)};
    }
    const topo::GpuPath& cached = topology.gpu_path(a, b);
    if (std::abs(cached.distance - forward) > kEps) {
      return util::Error{util::fmt(
          "topology: path/distance mismatch {}<->{}: {} vs {}", a, b,
          cached.distance, forward)};
    }
    if (cached.links.empty()) {
      return util::Error{
          util::fmt("topology: empty route between GPUs {} and {}", a, b)};
    }
    if (cached.bottleneck_gbps <= 0.0) {
      return util::Error{util::fmt(
          "topology: non-positive bottleneck bandwidth {}<->{}", a, b)};
    }
    // Distance-matrix consistency: the cached table must agree with a
    // fresh Dijkstra run over the raw graph.
    const topo::GpuPath fresh =
        topology.shortest_path(topology.gpu_node(a), topology.gpu_node(b));
    if (std::abs(fresh.distance - forward) > kEps) {
      return util::Error{util::fmt(
          "topology: cached distance {}<->{} is {} but Dijkstra says {}", a,
          b, forward, fresh.distance)};
    }
  }
  return util::Status::ok();
}

util::Status validate(const jobgraph::JobGraph& graph) {
  const int tasks = graph.task_count();
  if (tasks < 0) {
    return util::Error{util::fmt("jobgraph: negative task count {}", tasks)};
  }
  std::set<std::pair<int, int>> seen;
  for (const jobgraph::CommEdge& edge : graph.edges()) {
    if (edge.a < 0 || edge.a >= tasks || edge.b < 0 || edge.b >= tasks) {
      return util::Error{util::fmt(
          "jobgraph: edge {}-{} out of bounds for {} tasks", edge.a, edge.b,
          tasks)};
    }
    if (edge.a == edge.b) {
      return util::Error{util::fmt("jobgraph: self-loop on task {}", edge.a)};
    }
    if (edge.a > edge.b) {
      return util::Error{util::fmt(
          "jobgraph: edge {}-{} not normalized (a < b)", edge.a, edge.b)};
    }
    if (edge.weight <= 0.0) {
      return util::Error{util::fmt(
          "jobgraph: non-positive weight {} on edge {}-{}", edge.weight,
          edge.a, edge.b)};
    }
    if (!seen.insert({edge.a, edge.b}).second) {
      return util::Error{
          util::fmt("jobgraph: duplicate edge {}-{}", edge.a, edge.b)};
    }
  }
  return util::Status::ok();
}

util::Status validate(const cluster::ClusterState& state) {
  const topo::TopologyGraph& topology = state.topology();
  const int gpu_count = topology.gpu_count();

  // Ownership: every running job's GPUs must be valid, unique across jobs
  // (no double allocation), and agree with the ownership table.
  std::map<int, int> claimed;  // gpu -> job id
  for (const auto& [id, job] : state.running_jobs()) {
    if (static_cast<int>(job.gpus.size()) != job.request.num_gpus) {
      return util::Error{util::fmt(
          "cluster: job {} holds {} GPUs but requested {}", id,
          job.gpus.size(), job.request.num_gpus)};
    }
    if (job.request.comm_graph.task_count() != job.request.num_gpus) {
      return util::Error{util::fmt(
          "cluster: job {} comm graph has {} tasks for {} GPUs", id,
          job.request.comm_graph.task_count(), job.request.num_gpus)};
    }
    if (const util::Status graph = validate(job.request.comm_graph);
        !graph.is_ok()) {
      return graph.error().with_context(util::fmt("cluster: job {}", id));
    }
    for (const int gpu : job.gpus) {
      if (gpu < 0 || gpu >= gpu_count) {
        return util::Error{
            util::fmt("cluster: job {} holds invalid GPU {}", id, gpu)};
      }
      const auto [it, inserted] = claimed.emplace(gpu, id);
      if (!inserted) {
        return util::Error{util::fmt(
            "cluster: GPU {} double-allocated to jobs {} and {}", gpu,
            it->second, id)};
      }
      if (state.gpu_owner(gpu) != id) {
        return util::Error{util::fmt(
            "cluster: GPU {} owner table says {} but job {} holds it", gpu,
            state.gpu_owner(gpu), id)};
      }
    }
    if (job.progress_iterations < -kEps ||
        job.progress_iterations >
            static_cast<double>(job.request.iterations) + kEps) {
      return util::Error{util::fmt(
          "cluster: job {} progress {} outside [0, {}]", id,
          job.progress_iterations, job.request.iterations)};
    }
    if (job.rate < 0.0 || job.noise_factor <= 0.0) {
      return util::Error{util::fmt(
          "cluster: job {} has rate {} / noise factor {}", id, job.rate,
          job.noise_factor)};
    }
  }
  for (int gpu = 0; gpu < gpu_count; ++gpu) {
    const int owner = state.gpu_owner(gpu);
    const auto it = claimed.find(gpu);
    if (owner < 0 && it != claimed.end()) {
      return util::Error{util::fmt(
          "cluster: GPU {} marked free but held by job {}", gpu,
          it->second)};
    }
    if (owner >= 0 && it == claimed.end()) {
      return util::Error{util::fmt(
          "cluster: GPU {} owned by job {} but no running job holds it",
          gpu, owner)};
    }
  }
  const int expected_free = gpu_count - static_cast<int>(claimed.size());
  if (state.free_gpu_count() != expected_free) {
    return util::Error{util::fmt(
        "cluster: free-GPU count {} but ownership implies {}",
        state.free_gpu_count(), expected_free)};
  }

  // Link flows must equal a replay of every running job's routes.
  perf::LinkFlows replayed(static_cast<size_t>(topology.link_count()), 0);
  for (const auto& [id, job] : state.running_jobs()) {
    for (const jobgraph::CommEdge& edge : job.request.comm_graph.edges()) {
      const int gpu_a = job.gpus[static_cast<size_t>(edge.a)];
      const int gpu_b = job.gpus[static_cast<size_t>(edge.b)];
      for (const topo::LinkId link : topology.gpu_path(gpu_a, gpu_b).links) {
        ++replayed[static_cast<size_t>(link)];
      }
    }
  }
  const perf::LinkFlows& flows = state.link_flows();
  if (flows.size() != replayed.size()) {
    return util::Error{util::fmt(
        "cluster: flow table has {} links, topology has {}", flows.size(),
        replayed.size())};
  }
  for (size_t link = 0; link < flows.size(); ++link) {
    if (flows[link] != replayed[link]) {
      return util::Error{util::fmt(
          "cluster: link {} flow count {} but replay gives {}", link,
          flows[link], replayed[link])};
    }
  }

  // Per-machine indices and the Section 4.3 host-bandwidth accounting.
  const int machines = topology.machine_count();
  std::vector<std::vector<int>> by_machine(static_cast<size_t>(machines));
  std::vector<double> bw_used(static_cast<size_t>(machines), 0.0);
  for (const auto& [id, job] : state.running_jobs()) {
    const std::vector<int> touched = state.machines_of(job.gpus);
    const double share = job.request.profile.host_bw_demand_gbps /
                         static_cast<double>(touched.size());
    for (const int machine : touched) {
      by_machine[static_cast<size_t>(machine)].push_back(id);
      bw_used[static_cast<size_t>(machine)] += share;
    }
  }
  for (int machine = 0; machine < machines; ++machine) {
    std::vector<int>& expected = by_machine[static_cast<size_t>(machine)];
    std::sort(expected.begin(), expected.end());
    if (state.jobs_of_machine(machine) != expected) {
      return util::Error{util::fmt(
          "cluster: machine {} job index out of sync ({} vs {} jobs)",
          machine, state.jobs_of_machine(machine).size(), expected.size())};
    }
    if (std::abs(state.host_bw_used(machine) -
                 bw_used[static_cast<size_t>(machine)]) > kEps) {
      return util::Error{util::fmt(
          "cluster: machine {} host-bw accounting {} but replay gives {}",
          machine, state.host_bw_used(machine),
          bw_used[static_cast<size_t>(machine)])};
    }
  }

  // Occupancy counters and the capacity index are maintained
  // incrementally, so replay them from ownership: per-machine and
  // per-socket free counts, the machines-by-free-count histogram and the
  // fragmented-machine count.
  {
    int fragmented = 0;
    std::vector<int> hist(state.machine_free_histogram().size(), 0);
    for (int machine = 0; machine < machines; ++machine) {
      const std::vector<int>& gpus = topology.gpus_of_machine(machine);
      int machine_free = 0;
      for (const int gpu : gpus) {
        if (state.gpu_free(gpu)) ++machine_free;
      }
      if (state.machine_free_count(machine) != machine_free) {
        return util::Error{util::fmt(
            "cluster: machine {} free count {} but ownership implies {}",
            machine, state.machine_free_count(machine), machine_free)};
      }
      const std::vector<std::vector<int>>& sockets =
          topology.socket_gpu_lists(machine);
      const std::span<const int> socket_free =
          state.socket_free_counts(machine);
      if (socket_free.size() != sockets.size()) {
        return util::Error{util::fmt(
            "cluster: machine {} indexes {} sockets but has {}", machine,
            socket_free.size(), sockets.size())};
      }
      for (size_t socket = 0; socket < sockets.size(); ++socket) {
        const auto replay = std::count_if(
            sockets[socket].begin(), sockets[socket].end(),
            [&](int gpu) { return state.gpu_free(gpu); });
        if (socket_free[socket] != replay) {
          return util::Error{util::fmt(
              "cluster: machine {} socket {} free count {} but ownership "
              "implies {}",
              machine, socket, socket_free[socket], replay)};
        }
      }
      ++hist[static_cast<size_t>(machine_free)];
      if (machine_free > 0 && machine_free < static_cast<int>(gpus.size())) {
        ++fragmented;
      }
    }
    const std::span<const int> index = state.machine_free_histogram();
    for (size_t k = 0; k < hist.size(); ++k) {
      if (index[k] != hist[k]) {
        return util::Error{util::fmt(
            "cluster: {} machines indexed with {} free GPUs but replay "
            "gives {}",
            index[k], k, hist[k])};
      }
    }
    if (state.fragmented_machine_count() != fragmented) {
      return util::Error{util::fmt(
          "cluster: fragmented-machine count {} but replay gives {}",
          state.fragmented_machine_count(), fragmented)};
    }
  }

  // Link -> jobs interference index and each job's condensed flow counts
  // must equal a replay of the flattened flow links.
  std::vector<std::vector<int>> by_link(
      static_cast<size_t>(topology.link_count()));
  for (const auto& [id, job] : state.running_jobs()) {
    std::vector<topo::LinkId> sorted_links = job.flow_links;
    std::sort(sorted_links.begin(), sorted_links.end());
    size_t entry = 0;
    for (size_t i = 0; i < sorted_links.size();) {
      size_t j = i;
      while (j < sorted_links.size() && sorted_links[j] == sorted_links[i]) {
        ++j;
      }
      if (entry >= job.flow_link_counts.size() ||
          job.flow_link_counts[entry] !=
              std::pair<topo::LinkId, int>{sorted_links[i],
                                           static_cast<int>(j - i)}) {
        return util::Error{util::fmt(
            "cluster: job {} flow_link_counts out of sync with flow_links "
            "at link {}",
            id, sorted_links[i])};
      }
      by_link[static_cast<size_t>(sorted_links[i])].push_back(id);
      ++entry;
      i = j;
    }
    if (entry != job.flow_link_counts.size()) {
      return util::Error{util::fmt(
          "cluster: job {} flow_link_counts has {} entries, replay gives {}",
          id, job.flow_link_counts.size(), entry)};
    }
  }
  for (int link = 0; link < topology.link_count(); ++link) {
    // Replay lists are sorted already: running_jobs iterates id-ascending.
    if (state.jobs_of_link(link) != by_link[static_cast<size_t>(link)]) {
      return util::Error{util::fmt(
          "cluster: link {} job index out of sync ({} vs {} jobs)", link,
          state.jobs_of_link(link).size(),
          by_link[static_cast<size_t>(link)].size())};
    }
  }

  // Finish-time heap: exactly the positive-rate jobs, back-pointers and
  // stored times consistent, and min-heap ordered by (time, id).
  {
    const std::span<const cluster::ClusterState::FinishEntry> heap =
        state.finish_heap();
    size_t expected_slots = 0;
    for (const auto& [id, job] : state.running_jobs()) {
      if (job.rate > 0.0) {
        ++expected_slots;
        if (job.heap_pos < 0 ||
            job.heap_pos >= static_cast<int>(heap.size())) {
          return util::Error{util::fmt(
              "cluster: job {} has rate {} but heap_pos {}", id, job.rate,
              job.heap_pos)};
        }
        const cluster::ClusterState::FinishEntry& slot =
            heap[static_cast<size_t>(job.heap_pos)];
        if (slot.id != id || slot.time != job.finish_time) {
          return util::Error{util::fmt(
              "cluster: job {} heap slot holds (job {}, t={}) but job says "
              "t={}",
              id, slot.id, slot.time, job.finish_time)};
        }
      } else if (job.heap_pos != -1) {
        return util::Error{util::fmt(
            "cluster: zero-rate job {} still holds heap slot {}", id,
            job.heap_pos)};
      }
    }
    if (heap.size() != expected_slots) {
      return util::Error{util::fmt(
          "cluster: finish heap has {} slots for {} positive-rate jobs",
          heap.size(), expected_slots)};
    }
    for (size_t i = 1; i < heap.size(); ++i) {
      const cluster::ClusterState::FinishEntry& parent = heap[(i - 1) / 2];
      const cluster::ClusterState::FinishEntry& child = heap[i];
      if (child.time < parent.time ||
          (child.time == parent.time && child.id < parent.id)) {
        return util::Error{util::fmt(
            "cluster: finish heap violated at slot {}: ({}, {}) under "
            "({}, {})",
            i, child.time, child.id, parent.time, parent.id)};
      }
    }
  }
  return util::Status::ok();
}

util::Status audit_placement(const jobgraph::JobRequest& request,
                             std::span<const int> gpus,
                             const cluster::ClusterState& state) {
  const topo::TopologyGraph& topology = state.topology();
  if (static_cast<int>(gpus.size()) != request.num_gpus) {
    return util::Error{util::fmt(
        "placement: job {} offered {} GPUs for {} tasks", request.id,
        gpus.size(), request.num_gpus)};
  }
  if (request.comm_graph.task_count() != request.num_gpus) {
    return util::Error{util::fmt(
        "placement: job {} comm graph has {} tasks for {} GPUs", request.id,
        request.comm_graph.task_count(), request.num_gpus)};
  }
  if (const util::Status graph = validate(request.comm_graph);
      !graph.is_ok()) {
    return graph.error().with_context(
        util::fmt("placement: job {}", request.id));
  }
  std::set<int> distinct;
  for (const int gpu : gpus) {
    if (gpu < 0 || gpu >= topology.gpu_count()) {
      return util::Error{util::fmt(
          "placement: job {} offered invalid GPU {}", request.id, gpu)};
    }
    if (!distinct.insert(gpu).second) {
      return util::Error{util::fmt(
          "placement: job {} offered GPU {} twice", request.id, gpu)};
    }
    if (!state.gpu_free(gpu)) {
      return util::Error{util::fmt(
          "placement: job {} offered GPU {} already allocated to job {}",
          request.id, gpu, state.gpu_owner(gpu))};
    }
  }
  const std::vector<int> machines = state.machines_of(gpus);
  if (request.profile.single_node && machines.size() > 1) {
    return util::Error{util::fmt(
        "placement: single-node job {} spans {} machines", request.id,
        machines.size())};
  }
  if (request.profile.anti_collocate && machines.size() != gpus.size()) {
    return util::Error{util::fmt(
        "placement: anti-collocated job {} shares a machine ({} machines "
        "for {} tasks)",
        request.id, machines.size(), gpus.size())};
  }
  const double share = request.profile.host_bw_demand_gbps /
                       static_cast<double>(machines.size());
  for (const int machine : machines) {
    if (!state.host_bw_available(machine, share)) {
      return util::Error{util::fmt(
          "placement: job {} overcommits host bandwidth on machine {} "
          "({} + {} GB/s over capacity)",
          request.id, machine, state.host_bw_used(machine), share)};
    }
  }
  return util::Status::ok();
}

}  // namespace gts::check
