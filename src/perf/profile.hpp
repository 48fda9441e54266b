// Job profile generation (Section 4.2 / 5.1).
//
// The paper builds per-workload profiles experimentally: the 95th
// percentile completion time of five runs under the best (pack) and a
// sub-optimal (spread) allocation, solo and collocated. Our profiles come
// from the same performance model the simulator executes, which mirrors
// the paper's situation (their profiles were measured on the same machine
// the scheduler controlled).
#pragma once

#include "jobgraph/jobgraph.hpp"
#include "perf/model.hpp"
#include "topo/topology.hpp"

namespace gts::perf {

/// Reference placements on `topology`, both O(k) in `num_gpus`:
/// pack = fill sockets in (machine, socket) order, starting on machine 0;
/// spread = round-robin over every socket of the cluster, one GPU per
/// socket per round, so a spread wider than machine 0's sockets spans
/// several machines. Both return fewer than `num_gpus` GPUs when the
/// cluster has fewer.
std::vector<int> pack_placement(const topo::TopologyGraph& topology,
                                int num_gpus);
std::vector<int> spread_placement(const topo::TopologyGraph& topology,
                                  int num_gpus);

/// Fills the profile's solo-time anchor and collocation-slowdown row for
/// `request` (in place) using `model` on the reference `topology`.
void fill_profile(jobgraph::JobRequest& request,
                  const DlWorkloadModel& model,
                  const topo::TopologyGraph& topology);

/// Convenience: a fully profiled DL job request.
jobgraph::JobRequest make_profiled_dl(int id, double arrival_time,
                                      jobgraph::NeuralNet nn, int batch_size,
                                      int num_gpus, double min_utility,
                                      const DlWorkloadModel& model,
                                      const topo::TopologyGraph& topology,
                                      long long iterations = 4000);

}  // namespace gts::perf
