#include "shard/router.hpp"

#include <algorithm>
#include <cmath>

#include "sched/driver_api.hpp"

namespace gts::shard {

bool filter_admits(const jobgraph::JobRequest& request,
                   const ShardCandidate& candidate,
                   const perf::DlWorkloadModel& model) {
  const cluster::ClusterState& state = *candidate.state;
  return sched::job_can_ever_fit(request, state.topology(), model) &&
         state.may_fit(request);
}

int score_shard(const jobgraph::JobRequest& request,
                const ShardCandidate& candidate) {
  const cluster::ClusterState& state = *candidate.state;
  // Packing tier: prefer shards that can keep the job's communication
  // local (socket > machine > spanning) — the same ordering TOPO-AWARE's
  // utility rewards, estimated from aggregates alone.
  int score = 10;
  if (state.max_socket_free() >= request.num_gpus) {
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
  score += static_cast<int>(std::lround(10.0 * state.fragmentation()));
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
