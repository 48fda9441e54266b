#include "shard/summary.hpp"

#include <algorithm>
#include <cmath>

#include "check/check.hpp"
#include "sched/driver_api.hpp"

namespace gts::shard {

CellSummary::CellSummary(const topo::TopologyGraph& cell) {
  gpu_socket_slot_.resize(static_cast<size_t>(cell.gpu_count()));
  // Flat socket slots: machine-major, socket-minor.
  int max_socket_gpus = 0;
  for (int m = 0; m < cell.machine_count(); ++m) {
    const int sockets = cell.sockets_of_machine(m);
    for (int s = 0; s < sockets; ++s) {
      const std::vector<int>& gpus = cell.gpus_of_socket(m, s);
      const int slot = static_cast<int>(socket_free_.size());
      socket_free_.push_back(static_cast<int>(gpus.size()));
      socket_inv_size_.push_back(
          gpus.empty() ? 0.0 : 1.0 / static_cast<double>(gpus.size()));
      max_socket_gpus = std::max(max_socket_gpus,
                                 static_cast<int>(gpus.size()));
      for (const int gpu : gpus) {
        gpu_socket_slot_[static_cast<size_t>(gpu)] = slot;
      }
    }
  }
  socket_hist_.assign(static_cast<size_t>(max_socket_gpus) + 1, 0);
  for (const int free : socket_free_) {
    if (free > 0) frag_sum_ += 1.0;
    ++socket_hist_[static_cast<size_t>(free)];
  }
}

void CellSummary::on_allocation(std::span<const int> gpus, bool allocated) {
  const int delta = allocated ? -1 : 1;
  for (const int gpu : gpus) {
    GTS_DCHECK(gpu >= 0 && gpu < static_cast<int>(gpu_socket_slot_.size()),
               "cell summary: GPU id ", gpu, " out of range");
    const int slot = gpu_socket_slot_[static_cast<size_t>(gpu)];
    int& s_free = socket_free_[static_cast<size_t>(slot)];
    --socket_hist_[static_cast<size_t>(s_free)];
    s_free += delta;
    ++socket_hist_[static_cast<size_t>(s_free)];
    frag_sum_ += delta * socket_inv_size_[static_cast<size_t>(slot)];
  }
}

int CellSummary::max_free_socket() const {
  for (int k = static_cast<int>(socket_hist_.size()) - 1; k > 0; --k) {
    if (socket_hist_[static_cast<size_t>(k)] > 0) return k;
  }
  return 0;
}

double CellSummary::fragmentation() const {
  return socket_free_.empty()
             ? 0.0
             : frag_sum_ / static_cast<double>(socket_free_.size());
}

bool filter_admits(const jobgraph::JobRequest& request,
                   const ShardCandidate& candidate,
                   const perf::DlWorkloadModel& model) {
  const cluster::ClusterState& state = *candidate.state;
  return sched::job_can_ever_fit(request, state.topology(), model) &&
         state.may_fit(request);
}

int score_shard(const jobgraph::JobRequest& request,
                const ShardCandidate& candidate) {
  const CellSummary& summary = *candidate.summary;
  const cluster::ClusterState& state = *candidate.state;
  // Packing tier: prefer shards that can keep the job's communication
  // local (socket > machine > spanning) — the same ordering TOPO-AWARE's
  // utility rewards, estimated from aggregates alone.
  int score = 10;
  if (summary.max_free_socket() >= request.num_gpus) {
    score = 40;
  } else if (state.max_machine_free() >= request.num_gpus) {
    score = 25;
  }
  if (const int total = state.topology().gpu_count(); total > 0) {
    score += static_cast<int>(
        std::lround(30.0 * static_cast<double>(state.free_gpu_count()) /
                    static_cast<double>(total)));
  }
  score += std::max(0, 20 - 2 * candidate.queue_depth);
  score += static_cast<int>(std::lround(10.0 * summary.fragmentation()));
  return std::clamp(score, 0, 100);
}

RouteDecision route_job(const jobgraph::JobRequest& request,
                        std::span<const ShardCandidate> candidates,
                        const perf::DlWorkloadModel& model) {
  RouteDecision decision;
  int best_free = -1;  // fallback: ever-fitting shard with most free GPUs
  int fallback = -1;
  for (int shard = 0; shard < static_cast<int>(candidates.size()); ++shard) {
    const ShardCandidate& candidate = candidates[static_cast<size_t>(shard)];
    if (!filter_admits(request, candidate, model)) {
      ++decision.filtered;
      const cluster::ClusterState& state = *candidate.state;
      if (sched::job_can_ever_fit(request, state.topology(), model) &&
          state.free_gpu_count() > best_free) {
        best_free = state.free_gpu_count();
        fallback = shard;
      }
      continue;
    }
    const int score = score_shard(request, candidate);
    if (score > decision.score || decision.shard < 0) {
      decision.shard = shard;
      decision.score = score;
    }
  }
  if (decision.shard < 0 && fallback >= 0) {
    decision.shard = fallback;
    decision.score = 0;
    decision.exhausted = true;
  }
  return decision;
}

}  // namespace gts::shard
