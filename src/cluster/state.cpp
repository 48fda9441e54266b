#include "cluster/state.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "check/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/profile.hpp"

namespace gts::cluster {

ClusterState::ClusterState(const topo::TopologyGraph& topology,
                           const perf::DlWorkloadModel& model)
    : topology_(&topology),
      model_(&model),
      owner_(static_cast<size_t>(topology.gpu_count()), -1),
      flows_(static_cast<size_t>(topology.link_count()), 0),
      jobs_by_machine_(static_cast<size_t>(topology.machine_count())),
      jobs_by_link_(static_cast<size_t>(topology.link_count())),
      host_bw_used_(static_cast<size_t>(topology.machine_count()), 0.0),
      machine_free_(static_cast<size_t>(topology.machine_count()), 0),
      free_gpu_count_(topology.gpu_count()) {
  for (int machine = 0; machine < topology.machine_count(); ++machine) {
    machine_free_[static_cast<size_t>(machine)] =
        static_cast<int>(topology.gpus_of_machine(machine).size());
  }
  const auto widest = std::max_element(machine_free_.begin(),
                                       machine_free_.end());
  machine_hist_.assign(
      static_cast<size_t>(widest == machine_free_.end() ? 0 : *widest) + 1,
      0);
  for (const int free : machine_free_) {
    ++machine_hist_[static_cast<size_t>(free)];
  }
  socket_begin_.assign(static_cast<size_t>(topology.machine_count()) + 1, 0);
  for (int machine = 0; machine < topology.machine_count(); ++machine) {
    const size_t m = static_cast<size_t>(machine);
    for (const std::vector<int>& socket : topology.socket_gpu_lists(machine)) {
      socket_free_.push_back(static_cast<int>(socket.size()));
    }
    socket_begin_[m + 1] = socket_free_.size();
  }
  // Every socket starts all free: it sits in the bucket of its size and
  // contributes L/size · size = L to the Eq. 5 numerator.
  for (const int size : socket_free_) {
    socket_hist_.resize(
        std::max(socket_hist_.size(), static_cast<size_t>(size) + 1), 0);
    ++socket_hist_[static_cast<size_t>(size)];
    if (size > 0) {
      fragmentation_scale_ = std::lcm(fragmentation_scale_, size);
      ++fragmentation_sockets_;
    }
  }
  socket_weight_.reserve(socket_free_.size());
  for (const int size : socket_free_) {
    socket_weight_.push_back(size > 0 ? fragmentation_scale_ / size : 0);
  }
  fragmentation_numerator_ = fragmentation_scale_ * fragmentation_sockets_;
}

void ClusterState::set_execution_noise(double sigma, std::uint64_t seed) {
  noise_sigma_ = sigma;
  noise_rng_.reseed(seed);
}

void ClusterState::index_job(const RunningJob& job, bool insert) {
  const std::vector<int> machines = machines_of(job.gpus);
  // A multi-machine job's bandwidth demand is split evenly across its
  // machines; single-node jobs (the common case) charge one machine.
  const double demand = job.request.profile.host_bw_demand_gbps /
                        static_cast<double>(machines.size());
  for (const int machine : machines) {
    std::vector<int>& list = jobs_by_machine_[static_cast<size_t>(machine)];
    if (insert) {
      list.insert(std::upper_bound(list.begin(), list.end(), job.request.id),
                  job.request.id);
      host_bw_used_[static_cast<size_t>(machine)] += demand;
    } else {
      list.erase(std::remove(list.begin(), list.end(), job.request.id),
                 list.end());
      host_bw_used_[static_cast<size_t>(machine)] =
          std::max(0.0, host_bw_used_[static_cast<size_t>(machine)] - demand);
    }
  }
  // The link -> jobs interference index: one entry per unique link the
  // job's comm flows traverse, so a changed placement can find every job
  // whose foreign-flow inputs it altered without a cluster scan.
  for (const auto& [link, count] : job.flow_link_counts) {
    std::vector<int>& list = jobs_by_link_[static_cast<size_t>(link)];
    if (insert) {
      list.insert(std::upper_bound(list.begin(), list.end(), job.request.id),
                  job.request.id);
    } else {
      list.erase(std::remove(list.begin(), list.end(), job.request.id),
                 list.end());
    }
  }
}

std::vector<int> ClusterState::free_gpus() const {
  std::vector<int> gpus;
  for (int g = 0; g < topology_->gpu_count(); ++g) {
    if (gpu_free(g)) gpus.push_back(g);
  }
  return gpus;
}

std::vector<int> ClusterState::free_gpus_of_machine(int machine) const {
  const std::vector<int>& machine_gpus = topology_->gpus_of_machine(machine);
  std::vector<int> gpus;
  gpus.reserve(machine_gpus.size());
  for (const int g : machine_gpus) {
    if (gpu_free(g)) gpus.push_back(g);
  }
  return gpus;
}

void ClusterState::track_gpu(int gpu, bool allocated) {
  const int machine = topology_->machine_of_gpu(gpu);
  int& free = machine_free_[static_cast<size_t>(machine)];
  const int delta = allocated ? -1 : 1;
  if (const int socket = topology_->socket_of_gpu(gpu); socket >= 0) {
    const size_t slot = socket_begin_[static_cast<size_t>(machine)] +
                        static_cast<size_t>(socket);
    int& socket_free = socket_free_[slot];
    --socket_hist_[static_cast<size_t>(socket_free)];
    socket_free += delta;
    GTS_DCHECK(socket_free >= 0, "machine ", machine, " socket ", socket,
               " free-GPU counter negative: ", socket_free);
    ++socket_hist_[static_cast<size_t>(socket_free)];
    fragmentation_numerator_ += delta * socket_weight_[slot];
  }
  --machine_hist_[static_cast<size_t>(free)];
  free += delta;
  free_gpu_count_ += delta;
  GTS_DCHECK(free >= 0 &&
                 free <= static_cast<int>(
                             topology_->gpus_of_machine(machine).size()),
             "machine ", machine, " free-GPU counter out of range: ", free);
  ++machine_hist_[static_cast<size_t>(free)];
}

void ClusterState::corrupt_gpu_owner_for_test(int gpu, int job_id) {
  const int old_owner = owner_[static_cast<size_t>(gpu)];
  owner_[static_cast<size_t>(gpu)] = job_id;
  // Keep the owner-derived occupancy counters consistent with the
  // (corrupted) ownership table; see the header comment.
  if ((old_owner < 0) != (job_id < 0)) {
    track_gpu(gpu, /*allocated=*/job_id >= 0);
  }
  ++version_;
}

void ClusterState::add_flows(const RunningJob& job, int delta) {
  for (const topo::LinkId link : job.flow_links) {
    flows_[static_cast<size_t>(link)] += delta;
    GTS_DCHECK_GE(flows_[static_cast<size_t>(link)], 0);
  }
}

void ClusterState::place(const jobgraph::JobRequest& request,
                         std::vector<int> gpus, double now,
                         double placement_utility) {
  GTS_CHECK_EQ(static_cast<int>(gpus.size()), request.num_gpus);

  RunningJob job;
  job.request = request;
  job.gpus = std::move(gpus);
  job.start_time = now;
  job.last_update = now;
  job.placement_utility = placement_utility;
  if (noise_sigma_ > 0.0) {
    job.noise_factor = std::exp(noise_rng_.normal(0.0, noise_sigma_));
  }
  job.p2p = true;
  for (const jobgraph::CommEdge& edge : job.request.comm_graph.edges()) {
    const topo::GpuPath& path =
        topology_->gpu_path(job.gpus[static_cast<size_t>(edge.a)],
                            job.gpus[static_cast<size_t>(edge.b)]);
    if (!path.peer_to_peer) job.p2p = false;
    job.flow_links.insert(job.flow_links.end(), path.links.begin(),
                          path.links.end());
  }
  std::vector<topo::LinkId> sorted_links = job.flow_links;
  perf::condense_flows(sorted_links, job.flow_link_counts);
  job.solo_iteration_s = solo_iteration_time(job.request);
  for (const int gpu : job.gpus) {
    GTS_CHECK(gpu_free(gpu), "job ", request.id, " placed on busy GPU ",
              gpu, " owned by job ", gpu_owner(gpu));
    owner_[static_cast<size_t>(gpu)] = request.id;
    track_gpu(gpu, /*allocated=*/true);
  }
  add_flows(job, +1);
  index_job(job, /*insert=*/true);
  const std::vector<int> touched = machines_of(job.gpus);
  const auto inserted = jobs_.emplace(request.id, std::move(job));
  RunningJob& placed = inserted.first->second;
  ++version_;
  // Exactly the jobs whose rate inputs this placement changed: sharers of
  // a touched machine (interference term) or of a traversed link (flow
  // sharing) — including the new job itself via the indices.
  gather_touched(touched, placed.flow_link_counts, touched_ids_);
  for (const int id : touched_ids_) update_job_rate(jobs_.at(id), now);
  if (allocation_listener_) {
    allocation_listener_(placed.gpus, /*allocated=*/true);
  }
  GTS_METRIC_COUNT("cluster.placements", 1);
  GTS_TRACE_INSTANT(obs::kCluster, "cluster.place", "job", request.id);
  publish_occupancy_metrics();
}

void ClusterState::restore_job(const jobgraph::JobRequest& request,
                               std::vector<int> gpus, double start_time,
                               double progress_iterations,
                               double placement_utility, double noise_factor,
                               double now) {
  GTS_CHECK(start_time <= now + 1e-9, "restored job ", request.id,
            " starts in the future: start=", start_time, " now=", now);
  GTS_CHECK(progress_iterations >= 0.0 &&
                progress_iterations <=
                    static_cast<double>(request.iterations) + 1e-6,
            "restored job ", request.id,
            " progress out of bounds: ", progress_iterations);
  place(request, std::move(gpus), now, placement_utility);
  RunningJob& job = jobs_.at(request.id);
  job.start_time = start_time;
  job.progress_iterations = progress_iterations;
  job.noise_factor = noise_factor;
  job.last_update = now;
  ++version_;
  // The noise factor scales the job's rate; recompute with it in effect.
  recompute_all(now);
  // The overwritten progress moves the stored finish time even when the
  // rate itself came out unchanged (noise_factor 1), so refresh it
  // unconditionally from the restored progress.
  refresh_finish(job, now);
}

void ClusterState::remove(int job_id, double now) {
  const auto it = jobs_.find(job_id);
  GTS_CHECK(it != jobs_.end(), "removing unknown job ", job_id);
  RunningJob& job = it->second;
  add_flows(job, -1);
  index_job(job, /*insert=*/false);
  const std::vector<int> touched = machines_of(job.gpus);
  for (const int gpu : job.gpus) {
    owner_[static_cast<size_t>(gpu)] = -1;
    track_gpu(gpu, /*allocated=*/false);
  }
  const std::vector<int> freed = std::move(job.gpus);
  const std::vector<std::pair<topo::LinkId, int>> links =
      std::move(job.flow_link_counts);
  heap_erase(job);
  jobs_.erase(it);
  ++version_;
  // The removed job is already unindexed, so the gather yields only the
  // surviving machine/link sharers whose inputs the removal changed.
  gather_touched(touched, links, touched_ids_);
  for (const int id : touched_ids_) update_job_rate(jobs_.at(id), now);
  if (allocation_listener_) {
    allocation_listener_(freed, /*allocated=*/false);
  }
  GTS_METRIC_COUNT("cluster.releases", 1);
  GTS_TRACE_INSTANT(obs::kCluster, "cluster.release", "job", job_id);
  publish_occupancy_metrics();
}

void ClusterState::publish_occupancy_metrics() const {
  if (!obs::metrics_enabled() && !obs::tracing_enabled(obs::kCluster)) {
    return;
  }
  // Both values come from the capacity index, so publishing is O(1).
  GTS_METRIC_GAUGE_SET("cluster.free_gpus",
                       static_cast<double>(free_gpu_count_));
  GTS_METRIC_GAUGE_SET("cluster.fragmentation", fragmentation());
  GTS_TRACE_COUNTER(obs::kCluster, "cluster.free_gpus",
                    static_cast<double>(free_gpu_count_));
  GTS_TRACE_COUNTER(obs::kCluster, "cluster.fragmentation",
                    fragmentation());
}

const RunningJob* ClusterState::find(int job_id) const {
  const auto it = jobs_.find(job_id);
  return it == jobs_.end() ? nullptr : &it->second;
}

void ClusterState::bank_progress(double now) {
  for (auto& [id, job] : jobs_) {
    job.progress_iterations = job.progress_at(now);
    job.last_update = now;
    if (job.heap_pos >= 0) {
      // Rebase the stored finish time on the banked progress — the same
      // value next_completion used to recompute per query. Snapshot
      // restore re-derives finish times from (progress, now) too, so
      // checkpointing here keeps the original and a restored process
      // bitwise-identical afterwards.
      job.finish_time =
          now + std::max(0.0, job.remaining_iterations()) / job.rate;
      finish_heap_[static_cast<size_t>(job.heap_pos)].time = job.finish_time;
    }
  }
  // Keys moved (by rounding only), so re-establish the heap invariant.
  for (size_t i = finish_heap_.size() / 2; i-- > 0;) {
    heap_sift_down(i);
  }
}

std::vector<int> ClusterState::machines_of(std::span<const int> gpus) const {
  // Sorted + deduped via a small vector; the sets here are tiny (one
  // machine per task at most), so sort beats a node-based set.
  std::vector<int> machines;
  machines.reserve(gpus.size());
  for (const int gpu : gpus) {
    machines.push_back(topology_->machine_of_gpu(gpu));
  }
  std::sort(machines.begin(), machines.end());
  machines.erase(std::unique(machines.begin(), machines.end()),
                 machines.end());
  return machines;
}

void ClusterState::co_runners_into(std::span<const int> gpus,
                                   int exclude_job_id,
                                   CoRunnerScratch& scratch) const {
  // (machine, socket) pairs the placement touches, sorted for binary
  // search; machine list derived from it (same first components).
  std::vector<std::pair<int, int>>& sockets = scratch.sockets;
  sockets.clear();
  for (const int gpu : gpus) {
    sockets.emplace_back(topology_->machine_of_gpu(gpu),
                         topology_->socket_of_gpu(gpu));
  }
  std::sort(sockets.begin(), sockets.end());
  sockets.erase(std::unique(sockets.begin(), sockets.end()), sockets.end());
  // Candidate co-runners come from the per-machine index so the scan cost
  // is proportional to the touched machines, not the whole cluster.
  std::vector<int>& candidate_ids = scratch.ids;
  candidate_ids.clear();
  int last_machine = -1;
  for (const auto& [machine, socket] : sockets) {
    if (machine == last_machine) continue;  // sockets sorted by machine
    last_machine = machine;
    const std::vector<int>& ids =
        jobs_by_machine_[static_cast<size_t>(machine)];
    candidate_ids.insert(candidate_ids.end(), ids.begin(), ids.end());
  }
  std::sort(candidate_ids.begin(), candidate_ids.end());
  candidate_ids.erase(
      std::unique(candidate_ids.begin(), candidate_ids.end()),
      candidate_ids.end());
  std::vector<perf::CoRunner>& out = scratch.co;
  out.clear();
  out.reserve(candidate_ids.size());
  for (const int id : candidate_ids) {
    if (id == exclude_job_id) continue;
    const RunningJob& job = jobs_.at(id);
    bool shares_socket = false;
    for (const int gpu : job.gpus) {
      if (std::binary_search(
              sockets.begin(), sockets.end(),
              std::pair<int, int>{topology_->machine_of_gpu(gpu),
                                  topology_->socket_of_gpu(gpu)})) {
        shares_socket = true;
        break;
      }
    }
    out.push_back({job.request.profile.batch, shares_socket});
  }
}

double ClusterState::fragmentation_after(std::span<const int> gpus) const {
  // The numerator over the touched machines' sockets, less each taken
  // GPU's weight: integers, so the machine order does not matter.
  long long numerator = 0;
  int sockets = 0;
  for (size_t i = 0; i < gpus.size(); ++i) {
    const int machine = topology_->machine_of_gpu(gpus[i]);
    bool seen = false;
    for (size_t j = 0; j < i && !seen; ++j) {
      seen = topology_->machine_of_gpu(gpus[j]) == machine;
    }
    if (seen) continue;
    const size_t end = socket_begin_[static_cast<size_t>(machine) + 1];
    for (size_t slot = socket_begin_[static_cast<size_t>(machine)];
         slot < end; ++slot) {
      numerator += socket_free_[slot] * socket_weight_[slot];
      if (socket_weight_[slot] > 0) ++sockets;
    }
  }
  for (const int gpu : gpus) {
    const int socket = topology_->socket_of_gpu(gpu);
    if (!gpu_free(gpu) || socket < 0) continue;
    numerator -= socket_weight_[socket_begin_[static_cast<size_t>(
                                    topology_->machine_of_gpu(gpu))] +
                                static_cast<size_t>(socket)];
  }
  return sockets == 0 ? 0.0
                      : static_cast<double>(numerator) /
                            (static_cast<double>(fragmentation_scale_) *
                             static_cast<double>(sockets));
}

double ClusterState::solo_iteration_time(
    const jobgraph::JobRequest& request) const {
  if (request.profile.solo_time_pack > 0.0 && request.iterations > 0) {
    return request.profile.solo_time_pack /
           static_cast<double>(request.iterations);
  }
  // Fallback for unprofiled jobs: evaluate the model on an idle packed
  // placement (pack_placement stops after num_gpus GPUs).
  const std::vector<int> pack =
      perf::pack_placement(*topology_, request.num_gpus);
  if (static_cast<int>(pack.size()) != request.num_gpus) return 0.0;
  return model_->iteration(request, pack, *topology_).total_s;
}

perf::IterationBreakdown ClusterState::predict_iteration(
    const jobgraph::JobRequest& request, std::span<const int> gpus,
    CoRunnerScratch& scratch) const {
  co_runners_into(gpus, request.id, scratch);
  return model_->iteration(request, gpus, *topology_, &flows_, scratch.co);
}

void ClusterState::gather_touched(
    const std::vector<int>& machines,
    std::span<const std::pair<topo::LinkId, int>> links,
    std::vector<int>& ids) const {
  ids.clear();
  for (const int machine : machines) {
    const std::vector<int>& list =
        jobs_by_machine_[static_cast<size_t>(machine)];
    ids.insert(ids.end(), list.begin(), list.end());
  }
  for (const auto& [link, count] : links) {
    const std::vector<int>& list = jobs_by_link_[static_cast<size_t>(link)];
    ids.insert(ids.end(), list.begin(), list.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

void ClusterState::update_job_rate(RunningJob& job, double now) {
  co_runners_into(job.gpus, job.request.id, scratch_);
  // The job's own flows are subtracted from the global table on read
  // (perf::FlowDelta), in integers before any division.
  const perf::IterationBreakdown step =
      model_->iteration(job.request, job.gpus, *topology_, &flows_,
                        scratch_.co, job.flow_link_counts);
  const double iter = step.total_s * job.noise_factor;
  const double rate = iter > 0.0 ? 1.0 / iter : 0.0;
  if (rate == job.rate) {
    // Bitwise-equal rate: the regime is unchanged, so banking now or later
    // integrates to the same progress. Leaving the anchor alone is what
    // makes the full recompute (which evaluates every job) and the scoped
    // one (which only evaluates the touched set) write identical state.
    return;
  }
  // Bank at the old rate before entering the new regime.
  job.progress_iterations = job.progress_at(now);
  job.last_update = now;
  job.rate = rate;
  refresh_finish(job, now);
}

void ClusterState::recompute_all(double now) {
  for (auto& [id, job] : jobs_) update_job_rate(job, now);
}

void ClusterState::refresh_finish(RunningJob& job, double now) {
  job.finish_time =
      job.rate > 0.0
          ? now + std::max(0.0, job.remaining_iterations()) / job.rate
          : std::numeric_limits<double>::infinity();
  heap_update(job);
}

void ClusterState::heap_place(size_t i, const FinishEntry& entry) {
  finish_heap_[i] = entry;
  jobs_.at(entry.id).heap_pos = static_cast<int>(i);
}

void ClusterState::heap_sift_up(size_t i) {
  const FinishEntry entry = finish_heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!finish_less(entry, finish_heap_[parent])) break;
    heap_place(i, finish_heap_[parent]);
    i = parent;
  }
  heap_place(i, entry);
}

void ClusterState::heap_sift_down(size_t i) {
  const size_t n = finish_heap_.size();
  const FinishEntry entry = finish_heap_[i];
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        finish_less(finish_heap_[child + 1], finish_heap_[child])) {
      ++child;
    }
    if (!finish_less(finish_heap_[child], entry)) break;
    heap_place(i, finish_heap_[child]);
    i = child;
  }
  heap_place(i, entry);
}

void ClusterState::heap_update(RunningJob& job) {
  const bool wants_slot = job.rate > 0.0 && std::isfinite(job.finish_time);
  if (!wants_slot) {
    heap_erase(job);
    return;
  }
  if (job.heap_pos < 0) {
    finish_heap_.push_back({job.finish_time, job.request.id});
    job.heap_pos = static_cast<int>(finish_heap_.size()) - 1;
    heap_sift_up(static_cast<size_t>(job.heap_pos));
    return;
  }
  const size_t i = static_cast<size_t>(job.heap_pos);
  finish_heap_[i].time = job.finish_time;
  heap_sift_up(i);
  heap_sift_down(static_cast<size_t>(job.heap_pos));
}

void ClusterState::heap_erase(RunningJob& job) {
  if (job.heap_pos < 0) return;
  const size_t i = static_cast<size_t>(job.heap_pos);
  job.heap_pos = -1;
  const FinishEntry last = finish_heap_.back();
  finish_heap_.pop_back();
  if (i < finish_heap_.size()) {
    heap_place(i, last);
    heap_sift_up(i);
    heap_sift_down(
        static_cast<size_t>(jobs_.at(last.id).heap_pos));
  }
}

std::optional<std::pair<int, double>> ClusterState::next_completion()
    const {
  if (finish_heap_.empty()) return std::nullopt;
  const FinishEntry& top = finish_heap_.front();
  return std::make_pair(top.id, top.time);
}

std::vector<int> ClusterState::due_completions(double now) const {
  std::vector<int> due;
  if (finish_heap_.empty() || finish_heap_.front().time > now) return due;
  // BFS over the heap array, pruning subtrees whose root is beyond `now`
  // (children can only finish later); O(due) heap slots visited.
  std::vector<size_t> stack{0};
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    if (i >= finish_heap_.size() || finish_heap_[i].time > now) continue;
    due.push_back(finish_heap_[i].id);
    stack.push_back(2 * i + 1);
    stack.push_back(2 * i + 2);
  }
  std::sort(due.begin(), due.end());
  return due;
}

}  // namespace gts::cluster
