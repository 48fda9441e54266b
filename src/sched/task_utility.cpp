#include "sched/task_utility.hpp"

#include <algorithm>
#include <cmath>

namespace gts::sched {

TaskUtility::TaskUtility(const jobgraph::JobRequest& request,
                         const cluster::ClusterState& state,
                         const UtilityModel& model)
    : request_(request),
      state_(state),
      model_(model),
      comm_weight_(normalized_comm_weight(request)) {
  const size_t tasks = static_cast<size_t>(request.comm_graph.task_count());
  adjacency_.resize(tasks);
  for (const jobgraph::CommEdge& edge : request.comm_graph.edges()) {
    adjacency_[static_cast<size_t>(edge.a)].emplace_back(edge.b, edge.weight);
    adjacency_[static_cast<size_t>(edge.b)].emplace_back(edge.a, edge.weight);
  }
  on_other_.assign(tasks, 0);
}

void TaskUtility::begin_bipartition(const std::vector<int>& gpus0,
                                    const std::vector<int>& gpus1) const {
  bip_gpus_[0] = &gpus0;
  bip_gpus_[1] = &gpus1;
  side_cache_[0].valid = false;
  side_cache_[1].valid = false;
}

double TaskUtility::task_utility(int task, int side,
                                 const partition::BipartitionView& view) const {
  const std::vector<int>& side_gpus = side == 0 ? view.gpus0 : view.gpus1;
  const std::vector<int>& side_tasks = side == 0 ? view.tasks0 : view.tasks1;
  const std::vector<int>& other_gpus = side == 0 ? view.gpus1 : view.gpus0;
  const std::vector<int>& other_tasks = side == 0 ? view.tasks1 : view.tasks0;
  if (side_gpus.empty()) return 0.0;

  double d_intra;
  double d_cross;
  double u_interference;
  int frag_total;
  int frag_free;
  // The caches apply only to the GPU sets announced by begin_bipartition;
  // a direct call against other vectors falls back to a full recompute.
  if (bip_gpus_[side] == &side_gpus && bip_gpus_[1 - side] == &other_gpus) {
    SideCache& cache = side_cache_[side];
    if (!cache.valid) {
      cache.d_intra = mean_internal_distance(side_gpus);
      cache.d_cross = mean_cross_distance(side_gpus, other_gpus);
      cache.interference = interference_utility(side_gpus);
      fragmentation_counts(side_gpus, &cache.frag_total, &cache.frag_free);
      cache.valid = true;
    }
    d_intra = cache.d_intra;
    d_cross = cache.d_cross;
    u_interference = cache.interference;
    frag_total = cache.frag_total;
    frag_free = cache.frag_free;
  } else {
    d_intra = mean_internal_distance(side_gpus);
    d_cross = mean_cross_distance(side_gpus, other_gpus);
    u_interference = interference_utility(side_gpus);
    fragmentation_counts(side_gpus, &frag_total, &frag_free);
  }

  const double u_comm = comm_utility(task, d_intra, d_cross, other_tasks);

  // getFragmentation(): Eq. 5 over the machines this side touches, after
  // hypothetically consuming (routed tasks + this task) GPUs from it.
  double u_frag = 1.0;
  if (frag_total > 0) {
    const int free_after =
        std::max(0, frag_free - static_cast<int>(side_tasks.size()) - 1);
    const double omega =
        static_cast<double>(free_after) / static_cast<double>(frag_total);
    u_frag = 1.0 - omega;
  }
  return model_.combine(u_comm, u_interference, u_frag, comm_weight_);
}

double TaskUtility::comm_utility(int task, double d_intra, double d_cross,
                                 const std::vector<int>& other_tasks) const {
  const std::vector<std::pair<int, double>>& partners =
      adjacency_[static_cast<size_t>(task)];
  double weighted_distance = 0.0;
  double total_weight = 0.0;
  for (const int t : other_tasks) on_other_[static_cast<size_t>(t)] = 1;
  for (const auto& [partner, weight] : partners) {
    // Same-side and unrouted partners both cost d_intra.
    weighted_distance +=
        weight *
        (on_other_[static_cast<size_t>(partner)] != 0 ? d_cross : d_intra);
    total_weight += weight;
  }
  for (const int t : other_tasks) on_other_[static_cast<size_t>(t)] = 0;
  if (total_weight <= 0.0) return 1.0;
  const double mean_distance = weighted_distance / total_weight;
  return mean_distance > 0.0 ? std::min(1.0, 1.0 / mean_distance) : 1.0;
}

double TaskUtility::interference_utility(
    const std::vector<int>& side_gpus) const {
  state_.co_runners_into(side_gpus, request_.id, co_scratch_);
  const double factor = state_.model().interference_factor(
      request_.profile.batch, co_scratch_.co);
  return factor > 0.0 ? 1.0 / factor : 1.0;
}

void TaskUtility::fragmentation_counts(const std::vector<int>& side_gpus,
                                       int* total, int* free_now) const {
  const topo::TopologyGraph& topology = state_.topology();
  machines_scratch_.clear();
  for (const int gpu : side_gpus) {
    machines_scratch_.push_back(topology.machine_of_gpu(gpu));
  }
  std::sort(machines_scratch_.begin(), machines_scratch_.end());
  machines_scratch_.erase(
      std::unique(machines_scratch_.begin(), machines_scratch_.end()),
      machines_scratch_.end());
  // Every GPU sits on a socket, so a machine's size and free count are
  // the sums of its sockets' sizes and socket counts.
  *total = 0;
  *free_now = 0;
  for (const int machine : machines_scratch_) {
    *total += static_cast<int>(topology.gpus_of_machine(machine).size());
    *free_now += state_.machine_free_count(machine);
  }
}

double TaskUtility::mean_internal_distance(const std::vector<int>& gpus) const {
  if (gpus.size() < 2) return 1.0;  // a lone GPU: best case for peers here
  double total = 0.0;
  int pairs = 0;
  for (size_t i = 0; i < gpus.size(); ++i) {
    for (size_t j = i + 1; j < gpus.size(); ++j) {
      total += state_.topology().gpu_distance(gpus[i], gpus[j]);
      ++pairs;
    }
  }
  return total / pairs;
}

double TaskUtility::mean_cross_distance(const std::vector<int>& a,
                                        const std::vector<int>& b) const {
  if (a.empty() || b.empty()) return 1.0;
  double total = 0.0;
  for (const int gpu_a : a) {
    for (const int gpu_b : b) {
      total += state_.topology().gpu_distance(gpu_a, gpu_b);
    }
  }
  return total / (static_cast<double>(a.size()) *
                  static_cast<double>(b.size()));
}

}  // namespace gts::sched
