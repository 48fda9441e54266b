// Greedy baseline schedulers (Section 5.2): First Come First Served with a
// FIFO queue, and Best Fit bin packing ("allocating first the GPUs from
// highly used domains"). Both are topology-blind: they never look at link
// types, distances, or co-runner interference.
#pragma once

#include "sched/scheduler.hpp"

namespace gts::sched {

/// FCFS: strict FIFO; first machine (lowest id) with enough free GPUs,
/// lowest-id free GPUs first. The queue blocks behind an unplaceable head.
/// Anti-collocated jobs take one GPU from each of the lowest-id machines.
class FcfsScheduler final : public Scheduler {
 public:
  std::string name() const override { return "FCFS"; }
  std::optional<Placement> place(const jobgraph::JobRequest& request,
                                 const cluster::ClusterState& state) override;
  bool blocking_queue() const override { return true; }
};

/// Best Fit: chooses the machine with the fewest free GPUs that still fits
/// the job, and inside it the sockets that are already most used.
/// Anti-collocated jobs take one GPU from each of the tightest machines.
class BestFitScheduler final : public Scheduler {
 public:
  std::string name() const override { return "BF"; }
  std::optional<Placement> place(const jobgraph::JobRequest& request,
                                 const cluster::ClusterState& state) override;
};

}  // namespace gts::sched
