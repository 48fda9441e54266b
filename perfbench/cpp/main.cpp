// Benchmark driver: runs one workload from a seed and prints its metrics.
//
//   gts_perfbench --workload fig11|scale-light|daemon --seed N --seconds S
//                 --trace 0|1 [--size full|smoke] [--spans PATH]
//                 [--socket-dir DIR]
//
// The workload is set up several times (set-up time is reported as the
// median) and prepared once, then its measured unit repeats until S
// seconds have passed.
// A host-speed reference is timed between set-ups and between measured
// stretches of work, and each set-up or stretch time is divided by the
// host's slowdown over it (see host_speed.hpp). setup_s is the median
// scaled set-up time; wall_s sums each stretch's median scaled time over
// the repetitions. Other host times are the fastest repetition's. With
// --trace 1 untraced and traced repetitions alternate: the traced ones
// record spans and classify declines, the untraced ones give the layer
// times, and the difference of their spanned times is the tracing
// overhead. Human-readable lines come first; the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 when any output check failed.
#include <cmath>
#include <cstdio>
#include <string>

#include "host_speed.hpp"
#include "util/cli.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

// Set-up repeats at least kMinSetups times and until kSetupSeconds have
// passed (at most kMaxSetups), so cheap set-ups get a steadier median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupSeconds = 2.0;

void print_metric(const Metric& metric) {
  std::printf("%-34s %.10g %s\n", metric.name.c_str(), metric.value,
              metric.unit.c_str());
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& metric : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    if (out.size() > 1) out += ", ";
    out += "\"" + metric.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  gts::util::CliParser cli;
  cli.add_option("workload", "fig11 | scale-light | daemon", "");
  cli.add_option("seed", "workload seed", "42");
  cli.add_option("seconds", "measurement time", "20");
  cli.add_option("trace", "1 = traced run with per-layer metrics", "0");
  cli.add_option("size", "full | smoke (tiny inputs for tests)", "full");
  cli.add_option("spans", "write the traced run's spans here as CSV", "");
  cli.add_option("socket-dir", "directory for the daemon's socket", ".");
  if (auto status = cli.parse(argc, argv); !status) {
    std::fprintf(stderr, "%s\n%s", status.error().message.c_str(),
                 cli.usage(argv[0]).c_str());
    return 2;
  }
  const std::string name = cli.get("workload");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double seconds = cli.get_double("seconds");
  const bool trace = cli.get_int("trace") != 0;
  const Size size{cli.get("size") == "smoke"};
  std::unique_ptr<Workload> workload;
  if (name == "fig11") {
    workload = make_fig11(seed, size);
  } else if (name == "scale-light") {
    workload = make_scale_light(seed, size);
  } else if (name == "daemon") {
    workload = make_daemon(seed, size, cli.get("socket-dir"), trace);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n%s", name.c_str(),
                 cli.usage(argv[0]).c_str());
    return 2;
  }

  std::vector<double> topo_s, trace_s, driver_s, setup_s, scaled_setup_s;
  int jobs = 0;
  HostSpeed host;
  host.sample();
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; i < kMaxSetups; ++i) {
    if (i >= kMinSetups &&
        seconds_between(setup_start, Clock::now()) >= kSetupSeconds) {
      break;
    }
    const SetupTimes times = workload->setup();
    topo_s.push_back(times.topo_s);
    trace_s.push_back(times.trace_s);
    driver_s.push_back(times.driver_s);
    setup_s.push_back(times.topo_s + times.trace_s + times.driver_s);
    scaled_setup_s.push_back(host.scale(setup_s.back()));
    jobs = times.jobs;
  }

  Report report;
  workload->prepare(report);
  host.sample();
  std::vector<double> walls;
  std::vector<std::vector<double>> scaled_walls;
  std::vector<double> spanned;
  std::vector<double> traced_spanned;
  SpanLog spans(false);
  const Clock::time_point start = Clock::now();
  for (int rep = 0;; ++rep) {
    const bool traced = trace && rep % 2 == 1;
    SpanLog rep_spans(traced);
    const RepTimes times = workload->run(traced, rep_spans, report, host);
    if (traced) {
      traced_spanned.push_back(times.spanned_s);
      spans = std::move(rep_spans);
    } else {
      walls.push_back(times.wall_s);
      if (!scaled_walls.empty() &&
          scaled_walls.front().size() != times.scaled_s.size()) {
        report.fail(1, "repetitions timed different stretches");
      } else {
        scaled_walls.push_back(times.scaled_s);
      }
      spanned.push_back(times.spanned_s);
    }
    const bool both_kinds = !trace || !traced_spanned.empty();
    if (report.failed > 0 ||
        (both_kinds && seconds_between(start, Clock::now()) >= seconds)) {
      break;
    }
  }

  report.end_to_end.push_back({"setup_s", median(scaled_setup_s), "s"});
  report.end_to_end.push_back({"wall_s", sum_of_medians(scaled_walls), "s"});
  report.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  report.ledger.push_back({"e2e.raw_setup_s", median(setup_s), "s"});
  report.ledger.push_back({"e2e.raw_wall_s", median(walls), "s"});
  report.ledger.push_back({"e2e.fastest_wall_s", fastest(walls), "s"});
  report.ledger.push_back({"host.reference_s", host.median_seconds(), "s"});
  report.layers.push_back({"topo.build_s", median(topo_s), "s"});
  report.layers.push_back({"trace.generate_s", median(trace_s), "s"});
  report.layers.push_back(
      {"trace.us_per_job", median(trace_s) / jobs * 1e6, "us"});
  report.layers.push_back({"driver.construct_s", median(driver_s), "s"});
  if (trace) {
    report.layers.push_back({"trace.overhead_s",
                             fastest(traced_spanned) - fastest(spanned), "s"});
    report.ledger.push_back({"trace.spans",
                             static_cast<double>(spans.size()), "count"});
  }
  workload->summarize(spans, report);

  // JSON has no NaN or infinity; such a value is a failed run.
  const std::vector<Metric>& result =
      trace ? report.layers : report.end_to_end;
  for (const Metric& metric : result) {
    if (!std::isfinite(metric.value)) {
      report.fail(1, metric.name + " is not finite");
    }
  }
  const std::string spans_path = cli.get("spans");
  if (trace && !spans_path.empty() && !spans.write_csv(spans_path)) {
    report.fail(1, "cannot write spans to " + spans_path);
  }

  std::printf("workload %s seed %llu repetitions %zu untraced %zu traced\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              walls.size(), traced_spanned.size());
  for (const Metric& metric : report.end_to_end) print_metric(metric);
  for (const Metric& metric : report.layers) print_metric(metric);
  for (const Metric& metric : report.ledger) print_metric(metric);
  for (const auto& [policy, digest] : report.digests) {
    std::printf("digest %-27s %s\n", policy.c_str(), hex64(digest).c_str());
  }
  for (const std::string& failure : report.failures) {
    std::printf("FAILED %s\n", failure.c_str());
  }
  const bool correct = report.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", report.attempted, report.failed,
      json_metrics(result).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
