// Figure 10 — Scenario 1: 100 jobs on 5 Minsky machines (Section 5.5.1),
// as a multi-seed sweep on the parallel experiment runner.
//
// Each (seed) replica runs the full four-policy comparison on its own
// sched::Driver/ClusterState; replicas fan out over --threads workers and
// the per-replica payloads are byte-identical for any thread count.
// --out writes the versioned BENCH_fig10.json document. With a single
// seed, also prints the paper's slowdown curves (jobs ordered worst to
// best) for (a) placement-quality QoS and (b) QoS + waiting time.
#include <cstdio>
#include <vector>

#include "metrics/chart.hpp"
#include "obs/obs.hpp"
#include "runner/experiments.hpp"
#include "util/cli.hpp"

namespace {

/// Rebuilds the Fig. 10 line charts from one replica's per-policy
/// "qos_curve"/"qos_wait_curve" payload arrays.
void render_curves(const gts::json::Value& payload) {
  using namespace gts;
  std::vector<metrics::Series> qos_series;
  std::vector<metrics::Series> wait_series;
  for (const auto& [policy, entry] : payload.at("policies").as_object()) {
    const auto curve_of = [&](const char* key) {
      metrics::Series series{policy, {}};
      const json::Array& values = entry.at(key).as_array();
      for (size_t i = 0; i < values.size(); ++i) {
        series.points.push_back(
            {static_cast<double>(i), values[i].as_number()});
      }
      return series;
    };
    qos_series.push_back(curve_of("qos_curve"));
    wait_series.push_back(curve_of("qos_wait_curve"));
  }
  metrics::ChartOptions chart;
  chart.x_label = "jobs ordered worst to best";
  chart.y_label = "(a) JOB'S QOS slowdown";
  std::fputs(metrics::line_chart(qos_series, chart).c_str(), stdout);
  chart.y_label = "(b) JOB'S QOS + WAITING TIME slowdown";
  std::fputs(metrics::line_chart(wait_series, chart).c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gts;
  util::CliParser cli;
  cli.add_option("machines", "cluster size", "5");
  cli.add_option("jobs", "number of jobs", "100");
  cli.add_option("seeds", "replica count N (seeds 1..N) or list 'a,b,c'",
                 "42,");
  cli.add_option("threads", "worker threads (0 = all cores)", "0");
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

  runner::LargeScaleSweepConfig config;
  config.name = "fig10";
  config.machines = static_cast<int>(cli.get_int("machines"));
  config.jobs = static_cast<int>(cli.get_int("jobs"));
  config.seeds = *seeds;
  config.threads = static_cast<int>(cli.get_int("threads"));
  config.include_curves = seeds->size() == 1;
  const runner::SweepResult result = runner::run_large_scale_sweep(config);

  std::printf(
      "Fig. 10 — Scenario 1: %d jobs, %d machines, %zu seed(s), "
      "%.2fs wall (%.0f events/s)\n",
      config.jobs, config.machines, seeds->size(), result.wall_seconds,
      result.events_per_second());
  std::fputs(runner::render_large_scale_table(result).c_str(), stdout);
  if (config.include_curves) {
    render_curves(result.replicas.front().payload);
  }

  if (const std::string out = cli.get("out"); !out.empty()) {
    if (auto status = runner::write_bench_json(result, out); !status) {
      std::fprintf(stderr, "%s\n", status.error().message.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out.c_str());
  }
  const auto obs_written = obs::finalize();
  if (!obs_written) {
    std::fprintf(stderr, "%s\n", obs_written.error().message.c_str());
    return 1;
  }
  for (const std::string& path : *obs_written) {
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
