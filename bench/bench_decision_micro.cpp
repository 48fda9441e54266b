// Decision-path microbenchmark: per-stage wall-clock cost of one
// TOPO-AWARE placement decision, broken into the stages the ISSUE's
// perf-regression gate watches:
//
//   filter   — Algorithm 1's filterHostsByConstraints over the cluster
//   fm       — one top-level FM job bipartition (Algorithm 3) in isolation
//   drb      — the full DRB mapping (Algorithm 2, FM + utility inside)
//   utility  — final placement_utility evaluation of the chosen mapping
//   place    — a full TopoAwareScheduler::place() decision (candidate
//              scoring serial by default; --scoring-threads N fans it out
//              across a pool, decisions byte-identical either way)
//   total    — the whole decision (sum of the stages as actually run)
//
// Each replica streams a controlled workload through a live ClusterState
// (placing mapped jobs, evicting the oldest when the cluster saturates) so
// the stages see realistic co-runner, flow and fragmentation state rather
// than an empty cluster. The whole decision sequence is replayed
// `--repeats` times (it is deterministic, so every repeat makes identical
// decisions) and each decision records its *minimum* stage time across
// repeats — the usual microbenchmark estimator that filters scheduler
// preemption and cache-cold outliers, keeping the 15% regression gate
// meaningful. Stage latencies land in the payload "timing" subtree, so
// BENCH_decision_micro.json keeps its deterministic sections
// byte-identical across thread counts while timing_aggregates carries the
// wall-clock means that tools/bench_compare.py gates on.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "cluster/state.hpp"
#include "metrics/table.hpp"
#include "obs/obs.hpp"
#include "partition/fm.hpp"
#include "perf/profile.hpp"
#include "runner/experiments.hpp"
#include "runner/sweep.hpp"
#include "sched/scheduler.hpp"
#include "sched/topo_aware.hpp"
#include "sched/utility.hpp"
#include "sim/arrivals.hpp"
#include "topo/builders.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

using namespace gts;
using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

util::Expected<std::vector<int>> parse_int_list(const std::string& spec,
                                                const char* what) {
  std::vector<int> values;
  for (const auto& token : util::split(spec, ',')) {
    const std::string_view trimmed = util::trim(token);
    if (trimmed.empty()) continue;
    const auto value = util::parse_int(trimmed);
    if (!value || *value <= 0) {
      return util::Error{std::string(what) + ": bad entry '" +
                         std::string(trimmed) + "'"};
    }
    values.push_back(static_cast<int>(*value));
  }
  if (values.empty()) {
    return util::Error{std::string(what) + ": empty list"};
  }
  return values;
}

/// Same controlled workload as bench_overhead: all-to-all job graphs over
/// `tasks` GPUs, NN/batch mix cycled deterministically.
std::vector<jobgraph::JobRequest> micro_jobs(
    int job_count, int tasks, const perf::DlWorkloadModel& model,
    const topo::TopologyGraph& topology, util::Rng& rng) {
  util::Rng arrival_rng = rng.fork(1);
  const double rate_per_minute =
      10.0 * static_cast<double>(topology.machine_count()) / 5.0;
  const std::vector<double> arrivals =
      sim::poisson_arrivals(job_count, rate_per_minute, arrival_rng);

  const jobgraph::NeuralNet nets[] = {jobgraph::NeuralNet::kAlexNet,
                                      jobgraph::NeuralNet::kCaffeRef,
                                      jobgraph::NeuralNet::kGoogLeNet};
  const int batches[] = {1, 4, 16};
  const int per_machine =
      static_cast<int>(topology.gpus_of_machine(0).size());

  std::vector<jobgraph::JobRequest> jobs;
  jobs.reserve(static_cast<size_t>(job_count));
  for (int i = 0; i < job_count; ++i) {
    jobgraph::JobRequest request = perf::make_profiled_dl(
        i, arrivals[static_cast<size_t>(i)], nets[i % 3],
        batches[(i / 3) % 3], tasks, tasks == 1 ? 0.3 : 0.5, model, topology,
        250);
    if (tasks > per_machine) request.profile.single_node = false;
    jobs.push_back(std::move(request));
  }
  return jobs;
}

/// Per-decision stage latencies of one pass, microseconds.
struct StageSample {
  double filter_us = 0.0;
  double fm_us = 0.0;
  double drb_us = 0.0;
  double utility_us = 0.0;
  double place_us = 0.0;
  double total_us = 0.0;

  void min_with(const StageSample& other) {
    filter_us = std::min(filter_us, other.filter_us);
    fm_us = std::min(fm_us, other.fm_us);
    drb_us = std::min(drb_us, other.drb_us);
    utility_us = std::min(utility_us, other.utility_us);
    place_us = std::min(place_us, other.place_us);
    total_us = std::min(total_us, other.total_us);
  }
};

/// Deterministic counters of one pass; identical across repeats.
struct PassCounters {
  long long decisions = 0;
  long long mapped = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("machines", "cluster sizes to sweep", "5,20,50");
  cli.add_option("tasks", "job-graph sizes (GPUs per job) to sweep", "8");
  cli.add_option("jobs", "jobs per replica", "200");
  cli.add_option("seeds", "replica count N (seeds 1..N) or list 'a,b,c'",
                 "42,");
  cli.add_option("threads", "worker threads (0 = all cores)", "0");
  cli.add_option("repeats", "timed passes per replica (min taken)", "5");
  cli.add_option("scoring-threads",
                 "parallel candidate scoring in the place stage (0 = serial)",
                 "0");
  cli.add_option("out", "write BENCH JSON here ('' = no file)", "");
  obs::add_cli_flags(cli);
  if (auto status = cli.parse(argc, argv); !status) {
    std::fprintf(stderr, "%s\n%s", status.error().message.c_str(),
                 cli.usage(argv[0]).c_str());
    return 1;
  }
  if (auto status = obs::configure_from_cli(cli); !status) {
    std::fprintf(stderr, "%s\n", status.error().message.c_str());
    return 1;
  }
  const auto seeds = runner::parse_seed_spec(cli.get("seeds"));
  if (!seeds) {
    std::fprintf(stderr, "%s\n", seeds.error().message.c_str());
    return 1;
  }
  const auto machines = parse_int_list(cli.get("machines"), "machines");
  if (!machines) {
    std::fprintf(stderr, "%s\n", machines.error().message.c_str());
    return 1;
  }
  const auto tasks = parse_int_list(cli.get("tasks"), "tasks");
  if (!tasks) {
    std::fprintf(stderr, "%s\n", tasks.error().message.c_str());
    return 1;
  }
  const int job_count = static_cast<int>(cli.get_int("jobs"));
  const int repeats = std::max(1, static_cast<int>(cli.get_int("repeats")));
  const int scoring_threads =
      static_cast<int>(cli.get_int("scoring-threads"));
  if (scoring_threads < 0) {
    std::fprintf(stderr, "--scoring-threads must be >= 0\n");
    return 1;
  }

  runner::SweepOptions options;
  options.name = "decision_micro";
  options.scenarios.clear();
  for (const int m : *machines) {
    for (const int t : *tasks) {
      options.scenarios.push_back("minsky-" + std::to_string(m) + "m-" +
                                  std::to_string(t) + "t");
    }
  }
  options.seeds = *seeds;
  options.threads = static_cast<int>(cli.get_int("threads"));
  options.metadata["experiment"] = "decision_micro";
  {
    json::Array grid_machines;
    for (const int m : *machines) grid_machines.push_back(m);
    options.metadata["machines"] = std::move(grid_machines);
    json::Array grid_tasks;
    for (const int t : *tasks) grid_tasks.push_back(t);
    options.metadata["tasks"] = std::move(grid_tasks);
  }
  options.metadata["jobs"] = job_count;
  options.metadata["repeats"] = repeats;
  options.metadata["scoring_threads"] = scoring_threads;
  options.metadata["stages"] = json::Array{
      json::Value("filter"), json::Value("fm"), json::Value("drb"),
      json::Value("utility"), json::Value("place")};

  const int tasks_axis = static_cast<int>(tasks->size());
  const std::vector<int> machine_axis = *machines;
  const std::vector<int> task_axis = *tasks;
  const runner::SweepResult result = runner::run_sweep(
      options, [=](const runner::ReplicaContext& context) {
        const int m = machine_axis[static_cast<size_t>(context.scenario_index /
                                                       tasks_axis)];
        const int t =
            task_axis[static_cast<size_t>(context.scenario_index % tasks_axis)];
        const topo::TopologyGraph topology = topo::builders::cluster(
            m, topo::builders::MachineShape::kPower8Minsky);
        const perf::DlWorkloadModel model(
            perf::CalibrationParams::paper_minsky());
        util::Rng rng = context.rng;
        const std::vector<jobgraph::JobRequest> jobs =
            micro_jobs(job_count, t, model, topology, rng);

        const sched::UtilityModel utility{sched::UtilityWeights{}};
        // Full-decision stage: a real scheduler instance, so the place
        // stage exercises the pre-score/candidate path (and, with
        // --scoring-threads, the parallel scorer) rather than one bare
        // drb_place call.
        sched::TopoAwareScheduler scheduler(sched::UtilityWeights{},
                                            /*postpone=*/false);
        if (scoring_threads > 0) {
          scheduler.set_parallel_scoring(scoring_threads);
        }
        std::vector<StageSample> best;  // per decision, min across repeats
        PassCounters counters;

        const auto run_pass = [&](int repeat) {
          cluster::ClusterState state(topology, model);
          partition::FmScratch fm_scratch;

          PassCounters pass;
          std::deque<int> resident;  // placed job ids, oldest first
          double now = 0.0;
          size_t decision_index = 0;

          for (const jobgraph::JobRequest& request : jobs) {
            now = request.arrival_time;
            // Evict the oldest jobs once the cluster saturates so later
            // decisions run against a churning (but deterministic) state.
            while (state.free_gpu_count() < 2 * request.num_gpus &&
                   !resident.empty()) {
              state.remove(resident.front(), now);
              resident.pop_front();
            }

            StageSample sample;
            const auto decision_begin = Clock::now();

            auto begin = Clock::now();
            const std::vector<int> available =
                sched::filter_hosts(request, state);
            sample.filter_us = elapsed_us(begin, Clock::now());

            // FM stage: the top-level job bipartition of Algorithm 3 in
            // isolation, with scratch reuse (the scheduler's hot call
            // shape).
            begin = Clock::now();
            partition::FmGraph fm_graph;
            fm_graph.vertex_count = request.comm_graph.task_count();
            fm_graph.edges.reserve(request.comm_graph.edges().size());
            for (const jobgraph::CommEdge& edge :
                 request.comm_graph.edges()) {
              fm_graph.edges.push_back({edge.a, edge.b, edge.weight});
            }
            std::vector<int> initial(
                static_cast<size_t>(fm_graph.vertex_count));
            for (int v = 0; v < fm_graph.vertex_count; ++v) {
              initial[static_cast<size_t>(v)] = v % 2;
            }
            const partition::FmResult fm_result = partition::fm_bipartition(
                fm_graph, std::move(initial), {}, &fm_scratch);
            (void)fm_result;
            sample.fm_us = elapsed_us(begin, Clock::now());

            // DRB stage: the full utility-driven mapping.
            std::optional<sched::Placement> placement;
            begin = Clock::now();
            if (static_cast<int>(available.size()) >= request.num_gpus) {
              placement = sched::drb_place(request, available, state, utility,
                                           nullptr);
            }
            sample.drb_us = elapsed_us(begin, Clock::now());

            // Utility stage: re-evaluating the chosen placement, the unit
            // of work the incremental aggregates accelerate.
            begin = Clock::now();
            if (placement) {
              (void)utility.placement_utility(request, placement->gpus,
                                              state);
            }
            sample.utility_us = elapsed_us(begin, Clock::now());

            // Place stage: the whole decision through the scheduler
            // (filter + candidate scoring + reduction).
            begin = Clock::now();
            (void)scheduler.place(request, state);
            sample.place_us = elapsed_us(begin, Clock::now());

            sample.total_us = elapsed_us(decision_begin, Clock::now());
            ++pass.decisions;
            if (placement) {
              ++pass.mapped;
              state.place(request, placement->gpus, now, placement->utility);
              resident.push_back(request.id);
            }

            if (repeat == 0) {
              best.push_back(sample);
            } else {
              best[decision_index].min_with(sample);
            }
            ++decision_index;
          }
          counters = pass;
        };

        for (int repeat = 0; repeat < repeats; ++repeat) run_pass(repeat);

        json::Object payload;
        payload["machines"] = m;
        payload["tasks_per_job"] = t;
        payload["decisions"] = counters.decisions;
        payload["mapped"] = counters.mapped;
        obs::HistogramData filter_us, fm_us, drb_us, utility_us, place_us,
            total_us;
        for (const StageSample& sample : best) {
          filter_us.record(sample.filter_us);
          fm_us.record(sample.fm_us);
          drb_us.record(sample.drb_us);
          utility_us.record(sample.utility_us);
          place_us.record(sample.place_us);
          total_us.record(sample.total_us);
        }
        json::Object timing;
        timing["filter_us"] = filter_us.to_json();
        timing["fm_us"] = fm_us.to_json();
        timing["drb_us"] = drb_us.to_json();
        timing["utility_us"] = utility_us.to_json();
        timing["place_us"] = place_us.to_json();
        timing["total_us"] = total_us.to_json();
        payload[runner::kTimingKey] = std::move(timing);
        return json::Value(std::move(payload));
      });

  std::printf(
      "decision-path microbenchmark: %zu scenarios x %zu seed(s), %.2fs "
      "wall\n",
      options.scenarios.size(), seeds->size(), result.wall_seconds);
  metrics::Table table({"scenario", "filter(us)", "fm(us)", "drb(us)",
                        "utility(us)", "place(us)", "total(us)"});
  for (const std::string& scenario : options.scenarios) {
    const auto cell = [&](const char* stage) {
      return util::format_double(
          runner::find_aggregate(result, scenario,
                                 std::string("timing.") + stage + ".mean")
              .mean,
          1);
    };
    table.add_row({scenario, cell("filter_us"), cell("fm_us"),
                   cell("drb_us"), cell("utility_us"), cell("place_us"),
                   cell("total_us")});
  }
  std::fputs(table.render().c_str(), stdout);

  if (const std::string out = cli.get("out"); !out.empty()) {
    if (auto status = runner::write_bench_json(result, out); !status) {
      std::fprintf(stderr, "%s\n", status.error().message.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out.c_str());
  }
  const auto written = obs::finalize();
  if (!written) {
    std::fprintf(stderr, "%s\n", written.error().message.c_str());
    return 1;
  }
  for (const std::string& path : *written) {
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
