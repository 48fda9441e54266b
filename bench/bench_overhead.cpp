// Section 5.5.3 — scheduler overhead sweep: per-decision latency versus
// cluster size x job-graph size.
//
// The paper reports the decision time of the topology-aware scheduler
// growing with both the cluster and the job graph (~3 s for
// TOPO-AWARE[-P] vs ~0.45 s for the greedy policies at 1k machines with
// their Python/C prototype). The C++ reproduction is orders of magnitude
// faster, but the artifact is the same shape: the greedy-vs-topology-aware
// gap and the growth trend across the (machines x tasks-per-job) grid.
//
// Each grid cell is a sweep scenario; each (scenario, seed) replica runs
// the full four-policy comparison on a workload whose jobs all request
// `tasks` GPUs (so the DRB job-graph size is controlled). Latencies come
// from the driver's always-on per-decision histogram and land in the
// payload "timing" subtree, keeping the deterministic sections of
// BENCH_overhead.json byte-identical across thread counts and obs modes.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/scenarios.hpp"
#include "metrics/table.hpp"
#include "obs/obs.hpp"
#include "perf/profile.hpp"
#include "runner/experiments.hpp"
#include "topo/builders.hpp"
#include "trace/arrivals.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

using namespace gts;

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

/// A controlled-size workload: `job_count` jobs, each an all-to-all job
/// graph over `tasks` GPUs, NN/batch mix cycled deterministically, Poisson
/// arrivals scaled to the cluster like the Section 5.5 scenarios.
std::vector<jobgraph::JobRequest> overhead_jobs(
    int job_count, int tasks, long long iterations,
    const perf::DlWorkloadModel& model, const topo::TopologyGraph& topology,
    util::Rng& rng) {
  util::Rng arrival_rng = rng.fork(1);
  const double rate_per_minute =
      10.0 * static_cast<double>(topology.machine_count()) / 5.0;
  const std::vector<double> arrivals =
      trace::poisson_arrivals(job_count, rate_per_minute, arrival_rng);

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
        iterations);
    // Jobs larger than one machine must be allowed to span machines.
    if (tasks > per_machine) request.profile.single_node = false;
    jobs.push_back(std::move(request));
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("machines", "cluster sizes to sweep", "5,20,50");
  cli.add_option("tasks", "job-graph sizes (GPUs per job) to sweep", "2,4,8");
  cli.add_option("jobs", "jobs per replica", "40");
  cli.add_option("iterations", "training iterations per job", "250");
  cli.add_option("seeds", "replica count N (seeds 1..N) or list 'a,b,c'",
                 "42,");
  cli.add_option("threads", "worker threads (0 = all cores)", "0");
  cli.add_option("repeats",
                 "per-replica repetitions; each policy keeps the timing "
                 "subtree of its fastest run (min mean decision latency), "
                 "stabilizing the perf gate against scheduler noise", "1");
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
  const long long iterations = cli.get_int("iterations");
  const int repeats = static_cast<int>(cli.get_int("repeats"));
  if (repeats < 1) {
    std::fprintf(stderr, "--repeats must be >= 1\n");
    return 1;
  }

  runner::SweepOptions options;
  options.name = "overhead";
  options.scenarios.clear();
  for (const int m : *machines) {
    for (const int t : *tasks) {
      options.scenarios.push_back("minsky-" + std::to_string(m) + "m-" +
                                  std::to_string(t) + "t");
    }
  }
  options.seeds = *seeds;
  options.threads = static_cast<int>(cli.get_int("threads"));
  options.metadata["experiment"] = "overhead";
  {
    json::Array grid_machines;
    for (const int m : *machines) grid_machines.push_back(m);
    options.metadata["machines"] = std::move(grid_machines);
    json::Array grid_tasks;
    for (const int t : *tasks) grid_tasks.push_back(t);
    options.metadata["tasks"] = std::move(grid_tasks);
  }
  options.metadata["jobs"] = job_count;
  options.metadata["iterations"] = iterations;
  options.metadata["repeats"] = repeats;
  options.metadata["policies"] = json::Array{
      json::Value("BF"), json::Value("FCFS"), json::Value("TOPO-AWARE"),
      json::Value("TOPO-AWARE-P")};

  const int tasks_axis = static_cast<int>(tasks->size());
  const std::vector<int> machine_axis = *machines;
  const std::vector<int> task_axis = *tasks;
  const runner::SweepResult result = runner::run_sweep(
      options, [=](const runner::ReplicaContext& context) {
        const int m = machine_axis[static_cast<size_t>(context.scenario_index /
                                                       tasks_axis)];
        const int t =
            task_axis[static_cast<size_t>(context.scenario_index % tasks_axis)];
        const topo::TopologyGraph topology = topo::builders::make_cluster(
            m, 4, topo::builders::MachineShape::kPower8Minsky);
        const perf::DlWorkloadModel model(
            perf::CalibrationParams::paper_minsky());
        util::Rng rng = context.rng;
        const std::vector<jobgraph::JobRequest> jobs =
            overhead_jobs(job_count, t, iterations, model, topology, rng);
        json::Value payload = runner::policy_comparison_payload(
            exp::compare_policies(jobs, topology, model));
        // Min-of-repeats estimator: the deterministic sections (placements,
        // utilities, event counts) are byte-identical across repeats, so
        // re-running only tightens the wall-clock timing subtrees. Each
        // policy independently keeps its fastest run's timing — the min is
        // far less sensitive to scheduler noise than a single-shot mean.
        for (int repeat = 1; repeat < repeats; ++repeat) {
          const json::Value candidate = runner::policy_comparison_payload(
              exp::compare_policies(jobs, topology, model));
          json::Object& policies =
              payload.mutable_object()["policies"].mutable_object();
          for (auto& [name, entry] : policies) {
            const double incumbent = entry.at("timing")
                                         .at("decision_latency_us")
                                         .at("mean")
                                         .as_number();
            const json::Value& challenger =
                candidate.at("policies").at(name).at("timing");
            if (challenger.at("decision_latency_us").at("mean").as_number() <
                incumbent) {
              entry.set("timing", challenger);
            }
          }
        }
        payload.set("machines", m);
        payload.set("tasks_per_job", t);
        return payload;
      });

  std::printf(
      "Section 5.5.3 — scheduler overhead: %zu scenarios x %zu seed(s), "
      "%.2fs wall (%.0f events/s)\n",
      options.scenarios.size(), seeds->size(), result.wall_seconds,
      result.events_per_second());
  metrics::Table table({"scenario", "policy", "mean decision(us)", "p50(us)",
                        "p95(us)", "max(us)"});
  for (const std::string& scenario : options.scenarios) {
    for (const char* policy : {"BF", "FCFS", "TOPO-AWARE", "TOPO-AWARE-P"}) {
      const std::string prefix =
          std::string("policies.") + policy + ".timing.decision_latency_us.";
      const auto cell = [&](const char* metric) {
        return util::format_double(
            runner::find_aggregate(result, scenario, prefix + metric).mean, 1);
      };
      table.add_row({scenario, policy, cell("mean"), cell("p50"), cell("p95"),
                     cell("max")});
    }
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
