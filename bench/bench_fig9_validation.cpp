// Figure 9: validation of the trace-driven simulation against the
// prototype. The same Table 1 scenario runs through (a) the prototype
// runtime (manifest-driven pipeline) and (b) the simulation driver; the
// per-job completions must agree. The simulation's mean-job-utility curve
// for TOPO-AWARE-P is plotted from its job records.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "exp/scenarios.hpp"
#include "metrics/chart.hpp"
#include "metrics/table.hpp"
#include "perf/model.hpp"
#include "proto/runtime.hpp"
#include "topo/builders.hpp"
#include "util/strings.hpp"

namespace {

/// Mean placement utility of the jobs running at each distinct start or
/// end time: those placed at or before t and not yet ended (0 when none),
/// i.e. the running set after the scheduling pass at t.
gts::metrics::Series mean_utility_series(
    const gts::cluster::Recorder& recorder) {
  std::vector<double> times;
  for (const gts::cluster::JobRecord& record : recorder.records()) {
    if (record.placed()) times.push_back(record.start);
    if (record.end >= 0.0) times.push_back(record.end);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  gts::metrics::Series series{"mean job utility", {}};
  for (const double t : times) {
    double sum = 0.0;
    int running = 0;
    for (const gts::cluster::JobRecord& record : recorder.records()) {
      if (record.placed() && record.start <= t &&
          (record.end < 0.0 || t < record.end)) {
        sum += record.placement_utility;
        ++running;
      }
    }
    series.points.push_back({t, running > 0 ? sum / running : 0.0});
  }
  return series;
}

}  // namespace

int main() {
  using namespace gts;
  const topo::TopologyGraph minsky = topo::builders::power8_minsky();
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = exp::table1_jobs(model, minsky);

  proto::PrototypeRuntime runtime(minsky, model);
  metrics::Table table({"policy", "prototype makespan(s)",
                        "simulation makespan(s)", "max |job end delta|(s)"});
  for (const sched::Policy policy :
       {sched::Policy::kBestFit, sched::Policy::kFcfs,
        sched::Policy::kTopoAware, sched::Policy::kTopoAwareP}) {
    proto::PrototypeConfig config;
    config.policy = policy;
    const proto::PrototypeRun prototype = runtime.run(config, jobs);
    const auto simulation = exp::run_policy(policy, jobs, minsky, model);

    double max_delta = 0.0;
    for (const auto& record : prototype.report.recorder.records()) {
      const auto* sim_record = simulation.recorder.find(record.id);
      if (sim_record != nullptr && record.finished() &&
          sim_record->finished()) {
        max_delta = std::max(max_delta, std::fabs(record.end - sim_record->end));
      }
    }
    table.add_row(
        {std::string(sched::to_string(policy)),
         util::format_double(prototype.report.recorder.makespan(), 1),
         util::format_double(simulation.recorder.makespan(), 1),
         util::format_double(max_delta, 4)});

    if (policy == sched::Policy::kTopoAwareP) {
      // Fig. 9's mean-job-utility series for the postponing policy.
      const std::vector<metrics::Series> all = {
          mean_utility_series(simulation.recorder)};
      metrics::ChartOptions options;
      options.x_label = "time (s)";
      options.y_label = "mean running-job utility";
      std::fputs(metrics::line_chart(all, options).c_str(), stdout);
    }
  }
  std::fputs(table
                 .render("Fig. 9: prototype vs simulation (identical "
                         "behaviour expected — both run on the same "
                         "calibrated substrate)")
                 .c_str(),
             stdout);
  return 0;
}
