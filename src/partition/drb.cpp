#include "partition/drb.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include "partition/fm.hpp"

namespace gts::partition {

namespace {

/// Distinct machine ids of a GPU set (ascending). Small sets: sort +
/// unique on a flat vector instead of a node-based set.
std::vector<int> machines_of(const std::vector<int>& gpus,
                             const topo::TopologyGraph& topology) {
  std::vector<int> machines;
  machines.reserve(gpus.size());
  for (const int gpu : gpus) {
    machines.push_back(topology.machine_of_gpu(gpu));
  }
  std::sort(machines.begin(), machines.end());
  machines.erase(std::unique(machines.begin(), machines.end()),
                 machines.end());
  return machines;
}

/// Tasks ordered for Algorithm 3's pop(): highest total communication
/// weight first (the most constrained tasks choose sides first), ties by
/// ascending task id for determinism.
std::vector<int> task_order(const jobgraph::JobGraph& job) {
  std::vector<double> weight(static_cast<size_t>(job.task_count()), 0.0);
  for (const jobgraph::CommEdge& edge : job.edges()) {
    weight[static_cast<size_t>(edge.a)] += edge.weight;
    weight[static_cast<size_t>(edge.b)] += edge.weight;
  }
  std::vector<int> order(static_cast<size_t>(job.task_count()));
  for (int t = 0; t < job.task_count(); ++t) order[static_cast<size_t>(t)] = t;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return weight[static_cast<size_t>(a)] > weight[static_cast<size_t>(b)];
  });
  return order;
}

class Mapper {
 public:
  Mapper(const jobgraph::JobGraph& job, const topo::TopologyGraph& topology,
         const DrbCallbacks& callbacks, const DrbOptions& options)
      : job_(job),
        topology_(topology),
        callbacks_(callbacks),
        options_(options) {}

  DrbResult run(const std::vector<int>& available_gpus) {
    result_.assignment.assign(static_cast<size_t>(job_.task_count()), -1);
    if (options_.span == SpanMode::kAntiCollocate &&
        machines_of(available_gpus, topology_).size() <
            static_cast<size_t>(job_.task_count())) {
      // Fewer machines than tasks: the distinct-machine constraint can
      // never hold (in particular on a single-machine topology, where the
      // recursion below would never see a machine split to enforce it).
      return std::move(result_);
    }
    std::vector<int> tasks = task_order(job_);
    recurse(tasks, available_gpus, 1);
    result_.complete =
        std::none_of(result_.assignment.begin(), result_.assignment.end(),
                     [](int gpu) { return gpu < 0; });
    if (result_.complete && options_.span == SpanMode::kAntiCollocate) {
      // The split heuristics enforce the constraint at machine-split
      // levels; a degenerate bipartition (FM fallback halving straddling a
      // machine) can still co-locate, so verify the final assignment.
      const std::vector<int> machines =
          machines_of(result_.assignment, topology_);
      result_.complete = machines.size() == result_.assignment.size();
    }
    return std::move(result_);
  }

 private:
  // Algorithm 2: DRB(A, P, C).
  void recurse(const std::vector<int>& tasks, const std::vector<int>& gpus,
               int depth) {
    result_.stats.max_depth = std::max(result_.stats.max_depth, depth);
    if (tasks.empty()) return;
    if (gpus.empty()) return;  // tasks stay unassigned -> incomplete
    if (gpus.size() == 1) {
      // Leaf: map the first task; any extra tasks are a capacity failure
      // and remain unassigned.
      result_.assignment[static_cast<size_t>(tasks.front())] = gpus.front();
      return;
    }
    const std::vector<int> side = physical_bipartition(gpus, topology_,
                                                       &result_.stats);
    std::vector<int> gpus0;
    std::vector<int> gpus1;
    for (size_t i = 0; i < gpus.size(); ++i) {
      (side[i] == 0 ? gpus0 : gpus1).push_back(gpus[i]);
    }
    if (gpus0.empty() || gpus1.empty()) {
      // Degenerate split (identical closeness everywhere): fall back to a
      // deterministic halving so recursion always terminates.
      gpus0.assign(gpus.begin(), gpus.begin() + static_cast<long>(gpus.size() / 2));
      gpus1.assign(gpus.begin() + static_cast<long>(gpus.size() / 2), gpus.end());
    }
    if (options_.span == SpanMode::kAntiCollocate &&
        !is_machine_split(gpus0, gpus1)) {
      // A cut that is no machine split (on heterogeneous clusters the
      // physical cut peels off single GPUs) never reaches
      // anti_collocate_split, and the per-task loop would co-locate
      // tasks. Split by machine instead: the lower half of the machine
      // ids to side 0.
      const std::vector<int> machines = machines_of(gpus, topology_);
      if (machines.size() > 1) {
        const int last0 = machines[machines.size() / 2 - 1];
        gpus0.clear();
        gpus1.clear();
        for (const int gpu : gpus) {
          (topology_.machine_of_gpu(gpu) <= last0 ? gpus0 : gpus1)
              .push_back(gpu);
        }
      }
    }

    std::vector<int> tasks0;
    std::vector<int> tasks1;
    job_bipartition(tasks, gpus0, gpus1, tasks0, tasks1);

    recurse(tasks0, gpus0, depth + 1);
    recurse(tasks1, gpus1, depth + 1);
  }

  // Algorithm 3: utility-based job graph bipartitioning.
  void job_bipartition(const std::vector<int>& tasks,
                       const std::vector<int>& gpus0,
                       const std::vector<int>& gpus1, std::vector<int>& tasks0,
                       std::vector<int>& tasks1) {
    callbacks_.begin_bipartition(gpus0, gpus1);
    const bool machine_split = is_machine_split(gpus0, gpus1);

    if (machine_split && options_.span != SpanMode::kAntiCollocate) {
      // Keep the job on one machine group when any side can hold it
      // entirely ("preferentially places as many tasks as possible ... in
      // the same node").
      const bool fits0 = gpus0.size() >= tasks.size();
      const bool fits1 = gpus1.size() >= tasks.size();
      if (fits0 || fits1) {
        int chosen;
        if (fits0 && fits1) {
          chosen = whole_job_side(tasks, gpus0, gpus1);
        } else {
          chosen = fits0 ? 0 : 1;
        }
        (chosen == 0 ? tasks0 : tasks1) = tasks;
        return;
      }
      if (options_.span == SpanMode::kSingleNode) {
        // Cannot satisfy the single-node constraint at this level; leave
        // all tasks unassigned (the scheduler will see incomplete=false).
        // Exception: a deeper machine group may still fit, so only fail if
        // both sides are single machines.
        if (machines_of(gpus0, topology_).size() == 1 &&
            machines_of(gpus1, topology_).size() == 1) {
          return;  // tasks dropped -> incomplete
        }
        // Otherwise route everything to the side with more capacity and
        // let the deeper recursion try to find one machine.
        (gpus0.size() >= gpus1.size() ? tasks0 : tasks1) = tasks;
        return;
      }
      // kPreferPack but no side fits the whole job: fall through to the
      // per-task split (the job spans machines).
    }

    if (machine_split && options_.span == SpanMode::kAntiCollocate) {
      // Every task must land on a distinct machine: capacity of a side is
      // its machine count.
      anti_collocate_split(tasks, gpus0, gpus1, tasks0, tasks1);
      return;
    }

    // Algorithm 3's per-task loop.
    for (const int task : tasks) {
      const BipartitionView view{gpus0, gpus1, tasks0, tasks1};
      const bool room0 = tasks0.size() < gpus0.size();
      const bool room1 = tasks1.size() < gpus1.size();
      if (!room0 && !room1) return;  // capacity exhausted -> incomplete
      double u0 = room0 ? callbacks_.task_utility(task, 0, view) : -1.0;
      double u1 = room1 ? callbacks_.task_utility(task, 1, view) : -1.0;
      if (u0 >= u1) {
        tasks0.push_back(task);
      } else {
        tasks1.push_back(task);
      }
    }
  }

  void anti_collocate_split(const std::vector<int>& tasks,
                            const std::vector<int>& gpus0,
                            const std::vector<int>& gpus1,
                            std::vector<int>& tasks0,
                            std::vector<int>& tasks1) {
    const size_t cap0 = machines_of(gpus0, topology_).size();
    const size_t cap1 = machines_of(gpus1, topology_).size();
    for (const int task : tasks) {
      const BipartitionView view{gpus0, gpus1, tasks0, tasks1};
      const bool room0 = tasks0.size() < cap0;
      const bool room1 = tasks1.size() < cap1;
      if (!room0 && !room1) return;  // incomplete
      double u0 = room0 ? callbacks_.task_utility(task, 0, view) : -1.0;
      double u1 = room1 ? callbacks_.task_utility(task, 1, view) : -1.0;
      if (u0 >= u1) {
        tasks0.push_back(task);
      } else {
        tasks1.push_back(task);
      }
    }
  }

  /// True when the cut separates whole machines (no machine straddles it).
  bool is_machine_split(const std::vector<int>& gpus0,
                        const std::vector<int>& gpus1) const {
    const std::vector<int> m0 = machines_of(gpus0, topology_);
    const std::vector<int> m1 = machines_of(gpus1, topology_);
    std::vector<int> common;
    std::set_intersection(m0.begin(), m0.end(), m1.begin(), m1.end(),
                          std::back_inserter(common));
    return common.empty() && (m0.size() + m1.size() > 1) &&
           !(m0.size() == 1 && m1.empty()) && !(m1.size() == 1 && m0.empty());
  }

  /// Which side gets the whole job: simulate Algorithm 3's accumulation on
  /// each side and compare summed utilities.
  int whole_job_side(const std::vector<int>& tasks,
                     const std::vector<int>& gpus0,
                     const std::vector<int>& gpus1) {
    double total0 = 0.0;
    double total1 = 0.0;
    std::vector<int> accumulated0;
    std::vector<int> accumulated1;
    const std::vector<int> empty;
    for (const int task : tasks) {
      {
        const BipartitionView view{gpus0, gpus1, accumulated0, empty};
        total0 += callbacks_.task_utility(task, 0, view);
        accumulated0.push_back(task);
      }
      {
        const BipartitionView view{gpus0, gpus1, empty, accumulated1};
        total1 += callbacks_.task_utility(task, 1, view);
        accumulated1.push_back(task);
      }
    }
    return total0 >= total1 ? 0 : 1;
  }

  const jobgraph::JobGraph& job_;
  const topo::TopologyGraph& topology_;
  const DrbCallbacks& callbacks_;
  const DrbOptions options_;
  DrbResult result_;
};

}  // namespace

std::vector<int> DrbResult::gpus() const {
  if (!complete) return {};
  return assignment;
}

std::vector<int> physical_bipartition(const std::vector<int>& gpus,
                                      const topo::TopologyGraph& topology,
                                      DrbStats* stats) {
  const int n = static_cast<int>(gpus.size());
  GTS_CHECK_GE(n, 2);

  // Closeness graph: weight = (D + 1) - distance, D = max pairwise distance
  // within this GPU set. Close pairs get heavy edges; FM's mincut then cuts
  // across the widest topological separation.
  double max_distance = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      max_distance = std::max(
          max_distance, topology.gpu_distance(gpus[static_cast<size_t>(i)],
                                              gpus[static_cast<size_t>(j)]));
    }
  }
  FmGraph graph;
  graph.vertex_count = n;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double closeness =
          max_distance + 1.0 -
          topology.gpu_distance(gpus[static_cast<size_t>(i)],
                                gpus[static_cast<size_t>(j)]);
      if (closeness > 0.0) graph.edges.push_back({i, j, closeness});
    }
  }

  // Hierarchical initial partition: split whole machines when the set spans
  // machines, else whole sockets, else halves by GPU id.
  std::vector<int> initial(static_cast<size_t>(n), 0);
  const std::vector<int> machines = machines_of(gpus, topology);
  if (machines.size() > 1) {
    // First half of the machine ids (ascending) to side 0.
    const auto half =
        machines.begin() + static_cast<long>(machines.size() / 2);
    for (int i = 0; i < n; ++i) {
      initial[static_cast<size_t>(i)] =
          std::binary_search(
              machines.begin(), half,
              topology.machine_of_gpu(gpus[static_cast<size_t>(i)]))
              ? 0
              : 1;
    }
  } else {
    std::vector<int> sockets;
    sockets.reserve(gpus.size());
    for (const int gpu : gpus) {
      sockets.push_back(topology.socket_of_gpu(gpu));
    }
    std::sort(sockets.begin(), sockets.end());
    sockets.erase(std::unique(sockets.begin(), sockets.end()), sockets.end());
    if (sockets.size() > 1) {
      const auto half =
          sockets.begin() + static_cast<long>(sockets.size() / 2);
      for (int i = 0; i < n; ++i) {
        initial[static_cast<size_t>(i)] =
            std::binary_search(
                sockets.begin(), half,
                topology.socket_of_gpu(gpus[static_cast<size_t>(i)]))
                ? 0
                : 1;
      }
    } else {
      for (int i = n / 2; i < n; ++i) initial[static_cast<size_t>(i)] = 1;
    }
  }
  // Guard: both sides must be non-empty for FM's min_side constraint.
  if (std::count(initial.begin(), initial.end(), 0) == 0 ||
      std::count(initial.begin(), initial.end(), 0) == n) {
    for (int i = n / 2; i < n; ++i) initial[static_cast<size_t>(i)] = 1;
    for (int i = 0; i < n / 2; ++i) initial[static_cast<size_t>(i)] = 0;
  }

  obs::SpanGuard fm_span(obs::kFm, "fm.bipartition");
  fm_span.arg("vertices", n);
  FmResult fm = fm_bipartition(graph, std::move(initial), FmOptions{});
  fm_span.arg("passes", fm.passes)
      .arg("cut", fm.cut_weight)
      .arg("gain", fm.initial_cut - fm.cut_weight);
  GTS_METRIC_COUNT("drb.bipartitions", 1);
  GTS_METRIC_COUNT("fm.passes", fm.passes);
  GTS_METRIC_HISTOGRAM("drb.cut_cost", fm.cut_weight, obs::cost_bounds());
  if (stats != nullptr) {
    ++stats->bipartitions;
    stats->fm_passes += fm.passes;
  }
  return std::move(fm.side);
}

DrbResult drb_map(const jobgraph::JobGraph& job,
                  const std::vector<int>& available_gpus,
                  const topo::TopologyGraph& topology,
                  const DrbCallbacks& callbacks, const DrbOptions& options) {
  Mapper mapper(job, topology, callbacks, options);
  return mapper.run(available_gpus);
}

}  // namespace gts::partition
