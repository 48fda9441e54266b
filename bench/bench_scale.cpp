// Datacenter-scale sharding sweep: per-decision latency and placement
// quality, 500-5000 machines (DESIGN.md section 19).
//
// The single-driver TOPO-AWARE scheduler evaluates candidates over the
// whole cluster, so its per-decision cost grows with machine count. The
// sharded driver routes each arrival through the two-stage Filter/Score
// router and runs the full scheduling pass inside one cell only, keeping
// per-decision work O(cell). This bench is the artifact for that claim:
// a (machines x shards) sweep whose timing subtrees show flat sharded
// decision latency while the unsharded oracle climbs, plus the placement
// quality delta the federation gives up (the router sees aggregates, not
// GPUs, so cells can be locally fuller than the oracle would allow).
//
// Scenario labels follow bench_overhead: "minsky-1000m-8s". Everything
// outside the "timing" subtrees is byte-identical across --threads and
// --shard-threads (the runner's determinism contract); BENCH_scale.json
// diffs are gated in CI by tools/bench_compare.py against the committed
// baseline at 500 machines.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cluster/recorder.hpp"
#include "obs/obs.hpp"
#include "runner/experiments.hpp"
#include "runner/sweep.hpp"
#include "sched/driver.hpp"
#include "shard/sharded_driver.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"
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

/// Quality summary of one finished run, computed from the job records so
/// the sharded and unsharded drivers are judged by the same yardstick.
json::Value quality_payload(const sched::DriverReport& report) {
  double utility_sum = 0.0;
  double jct_sum = 0.0;
  double wait_sum = 0.0;
  long long placed = 0;
  long long finished = 0;
  for (const cluster::JobRecord& record : report.recorder.records()) {
    if (record.placed()) {
      utility_sum += record.placement_utility;
      wait_sum += record.waiting_time();
      ++placed;
    }
    if (record.finished()) {
      jct_sum += record.end - record.arrival;
      ++finished;
    }
  }
  json::Value quality;
  quality.set("placed", placed);
  quality.set("finished", finished);
  quality.set("makespan_s", report.recorder.makespan());
  quality.set("utility_mean",
              placed > 0 ? utility_sum / static_cast<double>(placed) : 0.0);
  quality.set("jct_mean_s",
              finished > 0 ? jct_sum / static_cast<double>(finished) : 0.0);
  quality.set("wait_mean_s",
              placed > 0 ? wait_sum / static_cast<double>(placed) : 0.0);
  quality.set("decisions", report.decision_count);
  quality.set("capacity_skips", report.capacity_skips);
  quality.set("advance_events", report.advance_count);
  return quality;
}

json::Value timing_payload(const sched::DriverReport& report) {
  json::Value timing;
  timing.set("decision_latency_us", report.decision_latency_us.to_json());
  // Split by outcome: the mixed mean moves with the mix of cheap declines
  // and placements, which the driver's capacity gate changes.
  timing.set("placed_latency_us", report.placed_latency_us.to_json());
  timing.set("declined_latency_us", report.declined_latency_us.to_json());
  // The per-decision vs per-advance split (Section 5.5.3): scale
  // regressions attribute to the decision path (candidate scoring) or the
  // event path (completion processing + rate updates). The scoped event
  // path keeps the advance mean flat with machine count; the
  // full-recompute oracle climbed with resident-job count.
  timing.set("advance_latency_us", report.advance_latency_us.to_json());
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("machines", "cluster sizes to sweep", "500,1000,2000,5000");
  cli.add_option("shards",
                 "shard counts to sweep ('auto' = machines / cell-machines)",
                 "auto");
  cli.add_option("cell-machines",
                 "target cell size for --shards auto", "125");
  cli.add_option("shard-threads",
                 "cell-advance workers (results stay byte-identical)", "1");
  cli.add_option("jobs",
                 "jobs per replica (0 = auto: 6 jobs per 5 machines, so "
                 "every cluster size sees comparable queue pressure)",
                 "0");
  cli.add_option("iterations", "training iterations per job", "1500");
  cli.add_option("oracle-max",
                 "run the unsharded oracle up to this many machines "
                 "(0 = never; it degrades super-linearly — that is the "
                 "point of the bench)",
                 "2000");
  cli.add_option("seeds", "replica count N (seeds 1..N) or list 'a,b,c'",
                 "42,");
  cli.add_option("threads", "sweep worker threads (0 = all cores)", "0");
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
  const int cell_machines = static_cast<int>(cli.get_int("cell-machines"));
  if (cell_machines < 1) {
    std::fprintf(stderr, "--cell-machines must be >= 1\n");
    return 1;
  }
  std::vector<int> shard_axis;
  if (cli.get("shards") != "auto") {
    const auto parsed = parse_int_list(cli.get("shards"), "shards");
    if (!parsed) {
      std::fprintf(stderr, "%s\n", parsed.error().message.c_str());
      return 1;
    }
    shard_axis = *parsed;
  }
  const int shard_threads = static_cast<int>(cli.get_int("shard-threads"));
  const int job_count = static_cast<int>(cli.get_int("jobs"));
  if (job_count < 0) {
    std::fprintf(stderr, "--jobs must be >= 0\n");
    return 1;
  }
  const long long iterations = cli.get_int("iterations");
  const int oracle_max = static_cast<int>(cli.get_int("oracle-max"));

  // The grid: explicit shard counts sweep per machine size; auto derives
  // one shard count per size so cells stay ~cell-machines machines.
  std::vector<std::pair<int, int>> grid;  // (machines, shards)
  for (const int m : *machines) {
    if (shard_axis.empty()) {
      grid.emplace_back(m, std::max(1, m / cell_machines));
    } else {
      for (const int s : shard_axis) {
        if (s <= m) grid.emplace_back(m, s);
      }
    }
  }

  runner::SweepOptions options;
  options.name = "scale";
  options.scenarios.clear();
  for (const auto& [m, s] : grid) {
    options.scenarios.push_back("minsky-" + std::to_string(m) + "m-" +
                                std::to_string(s) + "s");
  }
  options.seeds = *seeds;
  options.threads = static_cast<int>(cli.get_int("threads"));
  // The machine grid is deliberately NOT metadata: scenario labels carry
  // it, and bench_compare.py gates the intersection of scenarios — a CI
  // smoke run at 500 machines must config-match the committed full-grid
  // baseline on every shared key.
  options.metadata["experiment"] = "scale";
  options.metadata["jobs"] = job_count;
  options.metadata["iterations"] = iterations;
  options.metadata["cell_machines"] = cell_machines;
  options.metadata["shard_threads"] = shard_threads;
  options.metadata["oracle_max"] = oracle_max;
  options.metadata["policy"] = std::string("TOPO-AWARE-P");

  const std::vector<std::pair<int, int>> grid_axis = grid;
  const runner::SweepResult result = runner::run_sweep(
      options, [=](const runner::ReplicaContext& context) {
        const auto [m, s] = grid_axis[static_cast<size_t>(
            context.scenario_index)];
        using Clock = std::chrono::steady_clock;
        const auto seconds_since = [](Clock::time_point start) {
          return std::chrono::duration<double>(Clock::now() - start).count();
        };
        const Clock::time_point build_start = Clock::now();
        const topo::TopologyGraph topology = topo::builders::make_cluster(
            m, 4, topo::builders::MachineShape::kPower8Minsky);
        const double make_cluster_s = seconds_since(build_start);
        const perf::DlWorkloadModel model(
            perf::CalibrationParams::paper_minsky());
        trace::GeneratorOptions generator;
        generator.job_count = job_count > 0 ? job_count : (m * 6) / 5;
        generator.iterations = iterations;
        // Arrival pressure scales with the cluster like the Section 5.5
        // scenarios, so every size sees comparable queue dynamics.
        generator.arrival_rate_per_minute =
            10.0 * static_cast<double>(m) / 5.0;
        generator.seed = context.seed;
        const Clock::time_point generate_start = Clock::now();
        const std::vector<jobgraph::JobRequest> jobs =
            trace::generate_workload(generator, model, topology);
        const double generate_s = seconds_since(generate_start);

        json::Value payload;
        payload.set("machines", m);
        payload.set("shards", s);
        // Set-up cost: topology construction (path tables included) and
        // trace generation (every job profiled against the topology).
        json::Value setup_timing;
        setup_timing.set("make_cluster_s", make_cluster_s);
        setup_timing.set("generate_workload_s", generate_s);
        setup_timing.set("generate_us_per_job",
                         jobs.empty() ? 0.0
                                      : generate_s * 1e6 /
                                            static_cast<double>(jobs.size()));
        payload.set("timing", std::move(setup_timing));

        // Sharded run.
        shard::ShardedOptions sharded_options;
        sharded_options.shards = s;
        sharded_options.shard_threads = shard_threads;
        // Nothing in the payload reads the bandwidth/utility series; at
        // 5000 machines the per-event series append is pure overhead.
        sharded_options.driver.record_series = false;
        shard::ShardedDriver sharded(topology, model, sharded_options);
        const sched::DriverReport sharded_report = sharded.run(jobs);
        json::Value sharded_payload = quality_payload(sharded_report);
        const sched::RouterTelemetry router = sharded.router();
        json::Value router_payload;
        router_payload.set("routed", router.routed);
        router_payload.set("filtered", router.filtered);
        router_payload.set("exhausted", router.exhausted);
        sharded_payload.set("router", std::move(router_payload));
        json::Array per_shard;
        for (const sched::ShardInfo& info : sharded.shard_infos()) {
          json::Value row;
          row.set("shard", info.shard);
          row.set("machines", info.machines);
          row.set("gpus", info.gpus);
          row.set("decisions", info.decisions);
          row.set("placements", info.placements);
          row.set("routed", info.routed);
          per_shard.push_back(std::move(row));
        }
        sharded_payload.set("per_shard", std::move(per_shard));
        json::Value sharded_timing = timing_payload(sharded_report);
        sharded_timing.set("route_latency_us",
                           router.route_latency_us.to_json());
        sharded_payload.set("timing", std::move(sharded_timing));
        payload.set("events",
                    static_cast<double>(sharded_report.events));
        payload.set("sharded", std::move(sharded_payload));

        // Unsharded oracle, where the size still permits it.
        if (oracle_max > 0 && m <= oracle_max) {
          const auto scheduler =
              sched::make_scheduler(sched::Policy::kTopoAwareP);
          sched::DriverOptions oracle_options;
          oracle_options.record_series = false;
          sched::Driver oracle(topology, model, *scheduler, oracle_options);
          const sched::DriverReport oracle_report = oracle.run(jobs);
          json::Value oracle_payload = quality_payload(oracle_report);
          oracle_payload.set("timing", timing_payload(oracle_report));
          // Placement-quality delta: what the federation gives up by
          // routing on cell aggregates instead of scoring every GPU.
          json::Value delta;
          delta.set("utility_mean",
                    payload.at("sharded").at("utility_mean").as_number() -
                        oracle_payload.at("utility_mean").as_number());
          delta.set("jct_mean_s",
                    payload.at("sharded").at("jct_mean_s").as_number() -
                        oracle_payload.at("jct_mean_s").as_number());
          delta.set("makespan_s",
                    payload.at("sharded").at("makespan_s").as_number() -
                        oracle_payload.at("makespan_s").as_number());
          payload.set("unsharded", std::move(oracle_payload));
          payload.set("delta", std::move(delta));
        }
        return payload;
      });

  std::printf(
      "Section 19 — sharded scale sweep: %zu scenarios x %zu seed(s), "
      "%.2fs wall (%.0f events/s)\n",
      options.scenarios.size(), seeds->size(), result.wall_seconds,
      result.events_per_second());
  std::printf(
      "  %-18s %14s %14s %13s %13s %12s %12s %10s\n", "scenario",
      "sharded us/dec", "oracle us/dec", "shard us/adv", "oracle us/adv",
      "route p95 us", "d utility", "d jct s");
  for (size_t i = 0; i < options.scenarios.size(); ++i) {
    const std::string& scenario = options.scenarios[i];
    const auto mean = [&](const std::string& metric) {
      return runner::find_aggregate(result, scenario, metric).mean;
    };
    const metrics::Summary oracle = runner::find_aggregate(
        result, scenario, "unsharded.timing.decision_latency_us.mean");
    const metrics::Summary oracle_adv = runner::find_aggregate(
        result, scenario, "unsharded.timing.advance_latency_us.mean");
    std::printf(
        "  %-18s %14.1f %14s %13.1f %13s %12.1f %12.4f %10.2f\n",
        scenario.c_str(), mean("sharded.timing.decision_latency_us.mean"),
        oracle.count > 0 ? util::format_double(oracle.mean, 1).c_str() : "-",
        mean("sharded.timing.advance_latency_us.mean"),
        oracle_adv.count > 0
            ? util::format_double(oracle_adv.mean, 1).c_str()
            : "-",
        mean("sharded.timing.route_latency_us.p95"),
        mean("delta.utility_mean"), mean("delta.jct_mean_s"));
  }

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
