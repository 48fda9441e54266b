// Event-path microbenchmark: per-event wall-clock cost of the
// ClusterState mutations the simulation driver performs between
// placement decisions, swept over (machines x multi-machine job share):
//
//   place   — ClusterState::place (flow indexing + scoped rate updates)
//   remove  — ClusterState::remove (unindexing + scoped rate updates)
//   query   — next_completion + due_completions (the finish-time heap
//             probe the driver runs after every mutation to re-arm its
//             completion event)
//
// Every scenario runs one deterministic event sequence on the scoped
// event path (link-indexed touched sets): each event costs O(jobs
// touching the placed/removed job's machines and links).
//
// The multi-machine share axis is the interference-scoping stress knob:
// multi-machine jobs put flows on shared inter-machine links, so their
// placement used to trigger an all-jobs fallback. The scoped path walks
// the link->jobs index instead and stays flat as the share grows.
//
// Like bench_decision_micro, the event sequence is replayed --repeats
// times and each event records its minimum stage time across repeats.
// Stage latencies land in the payload "timing" subtree (gated by
// tools/bench_compare.py against bench/baselines/BENCH_advance_micro.json);
// the events/sec throughput rides in the same subtree as a scalar —
// reported, but not gated (higher is better, and the gate only
// understands latencies).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "cluster/state.hpp"
#include "metrics/table.hpp"
#include "obs/obs.hpp"
#include "perf/profile.hpp"
#include "runner/experiments.hpp"
#include "runner/sweep.hpp"
#include "topo/builders.hpp"
#include "trace/arrivals.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

using namespace gts;
using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

util::Expected<std::vector<int>> parse_int_list(const std::string& spec,
                                                const char* what,
                                                int minimum) {
  std::vector<int> values;
  for (const auto& token : util::split(spec, ',')) {
    const std::string_view trimmed = util::trim(token);
    if (trimmed.empty()) continue;
    const auto value = util::parse_int(trimmed);
    if (!value || *value < minimum) {
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

/// Controlled workload: `multi_pct` percent of the jobs are 8-task
/// all-to-all graphs marked multi-machine (they straddle Minsky machines
/// and put flows on inter-machine links); the rest cycle through 1/2/4
/// GPU single-machine shapes. The multi-machine jobs are interleaved
/// evenly so the resident mix holds the share throughout the run.
std::vector<jobgraph::JobRequest> event_jobs(
    int job_count, int multi_pct, const perf::DlWorkloadModel& model,
    const topo::TopologyGraph& topology, util::Rng& rng) {
  util::Rng arrival_rng = rng.fork(1);
  const double rate_per_minute =
      10.0 * static_cast<double>(topology.machine_count()) / 5.0;
  const std::vector<double> arrivals =
      trace::poisson_arrivals(job_count, rate_per_minute, arrival_rng);

  const jobgraph::NeuralNet nets[] = {jobgraph::NeuralNet::kAlexNet,
                                      jobgraph::NeuralNet::kCaffeRef,
                                      jobgraph::NeuralNet::kGoogLeNet};
  const int batches[] = {1, 4, 16};
  const int single_tasks[] = {1, 2, 4};
  const int per_machine =
      static_cast<int>(topology.gpus_of_machine(0).size());

  std::vector<jobgraph::JobRequest> jobs;
  jobs.reserve(static_cast<size_t>(job_count));
  for (int i = 0; i < job_count; ++i) {
    // Bresenham-style interleave: job i is multi-machine exactly when the
    // running quota i*pct/100 crosses an integer.
    const bool multi =
        ((i + 1) * multi_pct) / 100 > (i * multi_pct) / 100;
    const int tasks = multi ? 2 * per_machine : single_tasks[i % 3];
    jobgraph::JobRequest request = perf::make_profiled_dl(
        i, arrivals[static_cast<size_t>(i)], nets[i % 3],
        batches[(i / 3) % 3], tasks, tasks == 1 ? 0.3 : 0.5, model, topology,
        250);
    if (tasks > per_machine) request.profile.single_node = false;
    jobs.push_back(std::move(request));
  }
  return jobs;
}

/// Per-event stage latency of one pass, microseconds. Kind tells which
/// stage the sample belongs to (the sequence is deterministic, so kinds
/// line up across repeats).
enum class EventKind { kPlace, kRemove, kQuery };

struct PassResult {
  std::vector<double> event_us;  // one entry per event, sequence order
  double wall_us = 0.0;          // sum of the timed stages
  long long places = 0;
  long long removes = 0;
  long long queries = 0;

  void min_with(const PassResult& other) {
    for (size_t i = 0; i < event_us.size(); ++i) {
      event_us[i] = std::min(event_us[i], other.event_us[i]);
    }
    wall_us = std::min(wall_us, other.wall_us);
  }
};

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("machines", "cluster sizes to sweep", "5,20,50");
  cli.add_option("multi",
                 "percent of jobs that span machines (list to sweep)",
                 "0,25,50");
  cli.add_option("jobs", "jobs per replica", "300");
  cli.add_option("seeds", "replica count N (seeds 1..N) or list 'a,b,c'",
                 "42,");
  cli.add_option("threads", "worker threads (0 = all cores)", "0");
  cli.add_option("repeats", "timed passes per replica (min taken)", "3");
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
  const auto machines = parse_int_list(cli.get("machines"), "machines", 1);
  if (!machines) {
    std::fprintf(stderr, "%s\n", machines.error().message.c_str());
    return 1;
  }
  const auto multi = parse_int_list(cli.get("multi"), "multi", 0);
  if (!multi) {
    std::fprintf(stderr, "%s\n", multi.error().message.c_str());
    return 1;
  }
  for (const int pct : *multi) {
    if (pct > 100) {
      std::fprintf(stderr, "--multi: %d is not a percentage\n", pct);
      return 1;
    }
  }
  const int job_count = static_cast<int>(cli.get_int("jobs"));
  const int repeats = std::max(1, static_cast<int>(cli.get_int("repeats")));

  runner::SweepOptions options;
  options.name = "advance_micro";
  options.scenarios.clear();
  for (const int m : *machines) {
    for (const int pct : *multi) {
      options.scenarios.push_back("minsky-" + std::to_string(m) + "m-" +
                                  std::to_string(pct) + "pc");
    }
  }
  options.seeds = *seeds;
  options.threads = static_cast<int>(cli.get_int("threads"));
  options.metadata["experiment"] = "advance_micro";
  {
    json::Array grid_machines;
    for (const int m : *machines) grid_machines.push_back(m);
    options.metadata["machines"] = std::move(grid_machines);
    json::Array grid_multi;
    for (const int pct : *multi) grid_multi.push_back(pct);
    options.metadata["multi"] = std::move(grid_multi);
  }
  options.metadata["jobs"] = job_count;
  options.metadata["repeats"] = repeats;
  options.metadata["stages"] = json::Array{
      json::Value("place"), json::Value("remove"), json::Value("query")};

  const int multi_axis_size = static_cast<int>(multi->size());
  const std::vector<int> machine_axis = *machines;
  const std::vector<int> multi_axis = *multi;
  const runner::SweepResult result = runner::run_sweep(
      options, [=](const runner::ReplicaContext& context) {
        const int m = machine_axis[static_cast<size_t>(
            context.scenario_index / multi_axis_size)];
        const int pct = multi_axis[static_cast<size_t>(
            context.scenario_index % multi_axis_size)];
        const topo::TopologyGraph topology = topo::builders::cluster(
            m, topo::builders::MachineShape::kPower8Minsky);
        const perf::DlWorkloadModel model(
            perf::CalibrationParams::paper_minsky());
        util::Rng rng = context.rng;
        const std::vector<jobgraph::JobRequest> jobs =
            event_jobs(job_count, pct, model, topology, rng);
        const int gpu_count = topology.gpu_count();

        // One pass = the whole event sequence against a fresh cluster:
        // first-free placement, evict-oldest when saturated, and the
        // driver's completion-probe after every mutation.
        std::vector<EventKind> kinds;
        const auto run_pass = [&] {
          cluster::ClusterState state(topology, model);
          PassResult pass;
          std::deque<int> resident;  // placed job ids, oldest first
          std::vector<int> gpus;
          const bool record_kinds = kinds.empty();

          const auto probe = [&](double now) {
            const auto begin = Clock::now();
            (void)state.next_completion();
            (void)state.due_completions(now);
            const double us = elapsed_us(begin, Clock::now());
            pass.event_us.push_back(us);
            pass.wall_us += us;
            ++pass.queries;
            if (record_kinds) kinds.push_back(EventKind::kQuery);
          };

          for (const jobgraph::JobRequest& request : jobs) {
            const double now = request.arrival_time;
            while (state.free_gpu_count() < request.num_gpus &&
                   !resident.empty()) {
              const int victim = resident.front();
              resident.pop_front();
              const auto begin = Clock::now();
              state.remove(victim, now);
              const double us = elapsed_us(begin, Clock::now());
              pass.event_us.push_back(us);
              pass.wall_us += us;
              ++pass.removes;
              if (record_kinds) kinds.push_back(EventKind::kRemove);
              probe(now);
            }
            if (state.free_gpu_count() < request.num_gpus) continue;

            gpus.clear();
            for (int g = 0; g < gpu_count &&
                            static_cast<int>(gpus.size()) < request.num_gpus;
                 ++g) {
              if (state.gpu_free(g)) gpus.push_back(g);
            }
            const auto begin = Clock::now();
            state.place(request, gpus, now, /*placement_utility=*/1.0);
            const double us = elapsed_us(begin, Clock::now());
            pass.event_us.push_back(us);
            pass.wall_us += us;
            ++pass.places;
            resident.push_back(request.id);
            if (record_kinds) kinds.push_back(EventKind::kPlace);
            probe(now);
          }
          return pass;
        };

        PassResult best = run_pass();
        for (int repeat = 1; repeat < repeats; ++repeat) {
          best.min_with(run_pass());
        }

        obs::HistogramData place_us, remove_us, query_us;
        for (size_t i = 0; i < best.event_us.size(); ++i) {
          switch (kinds[i]) {
            case EventKind::kPlace: place_us.record(best.event_us[i]); break;
            case EventKind::kRemove:
              remove_us.record(best.event_us[i]);
              break;
            case EventKind::kQuery: query_us.record(best.event_us[i]); break;
          }
        }
        const double mutations =
            static_cast<double>(best.places + best.removes);

        json::Object payload;
        payload["machines"] = m;
        payload["multi_pct"] = pct;
        payload["places"] = best.places;
        payload["removes"] = best.removes;
        payload["queries"] = best.queries;
        payload["events"] = best.places + best.removes;
        json::Object timing;
        timing["place_us"] = place_us.to_json();
        timing["remove_us"] = remove_us.to_json();
        timing["query_us"] = query_us.to_json();
        // A scalar, deliberately not named "*.mean": reported in
        // timing_aggregates but outside the regression gate (throughput is
        // higher-is-better, which the latency gate would misread).
        timing["events_per_sec"] =
            best.wall_us > 0.0 ? mutations / (best.wall_us * 1e-6) : 0.0;
        payload[runner::kTimingKey] = std::move(timing);
        return json::Value(std::move(payload));
      });

  std::printf(
      "event-path microbenchmark: %zu scenarios x %zu seed(s), %.2fs wall\n",
      options.scenarios.size(), seeds->size(), result.wall_seconds);
  metrics::Table table(
      {"scenario", "place(us)", "remove(us)", "query(us)", "events/s"});
  for (const std::string& scenario : options.scenarios) {
    const auto cell = [&](const char* metric, int digits) {
      return util::format_double(
          runner::find_aggregate(result, scenario,
                                 std::string("timing.") + metric)
              .mean,
          digits);
    };
    table.add_row({scenario, cell("place_us.mean", 1),
                   cell("remove_us.mean", 1), cell("query_us.mean", 2),
                   cell("events_per_sec", 0)});
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
