#include "runner/experiments.hpp"

#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "perf/model.hpp"
#include "topo/builders.hpp"
#include "util/strings.hpp"

namespace gts::runner {

namespace {

/// Deterministic scheduler-internal counters (cache + DRB); lives outside
/// the "timing" subtree on purpose — the counters are pure functions of
/// the decision sequence.
json::Value scheduler_stats_json(const exp::SchedulerStats& stats) {
  json::Object o;
  if (stats.topo_aware) {
    json::Object drb;
    drb["bipartitions"] = stats.drb.bipartitions;
    drb["fm_passes"] = stats.drb.fm_passes;
    drb["max_depth"] = stats.drb.max_depth;
    o["drb"] = std::move(drb);
    json::Object scoring;
    scoring["scored"] = stats.scoring.scored;
    scoring["twin_reuses"] = stats.scoring.twin_reuses;
    o["scoring"] = std::move(scoring);
  }
  return o;
}

json::Value policy_entry_json(const exp::PolicyComparison::Entry& entry,
                              bool include_curves) {
  const metrics::Summary qos = metrics::summarize(entry.qos_slowdowns);
  const metrics::Summary wait = metrics::summarize(entry.qos_wait_slowdowns);
  json::Object o;
  o["makespan_s"] = entry.makespan;
  o["slo_violations"] = entry.slo_violations;
  o["qos_mean"] = qos.mean;
  o["qos_p95"] = qos.p95;
  o["qos_max"] = qos.max;
  o["qos_wait_mean"] = wait.mean;
  o["qos_wait_p95"] = wait.p95;
  o["mean_wait_s"] = entry.mean_waiting;
  o["sched_stats"] = scheduler_stats_json(entry.sched_stats);
  o["capacity_skips"] = entry.capacity_skips;
  // Wall-clock measurement: reserved "timing" subtree, excluded from the
  // determinism contract (see runner::kTimingKey).
  json::Object timing;
  timing["mean_decision_us"] = entry.mean_decision_us;
  timing["decision_latency_us"] = entry.decision_latency_us.to_json();
  o[kTimingKey] = std::move(timing);
  if (include_curves) {
    json::Array qos_curve;
    for (const double v : entry.qos_slowdowns) qos_curve.push_back(v);
    o["qos_curve"] = std::move(qos_curve);
    json::Array wait_curve;
    for (const double v : entry.qos_wait_slowdowns) wait_curve.push_back(v);
    o["qos_wait_curve"] = std::move(wait_curve);
  }
  return o;
}

}  // namespace

json::Value policy_comparison_payload(const exp::PolicyComparison& comparison,
                                      bool include_curves) {
  json::Object payload;
  double events = 0.0;
  json::Object policies;
  for (const exp::PolicyComparison::Entry& entry : comparison.entries) {
    events += static_cast<double>(entry.events);
    policies[entry.name] = policy_entry_json(entry, include_curves);
  }
  payload["events"] = events;
  payload["policies"] = std::move(policies);
  return payload;
}

json::Value large_scale_payload(const exp::LargeScaleOptions& options,
                                bool include_curves) {
  return policy_comparison_payload(exp::run_large_scale(options),
                                   include_curves);
}

SweepResult run_large_scale_sweep(const LargeScaleSweepConfig& config) {
  SweepOptions options;
  options.name = config.name;
  options.scenarios = {"minsky-" + std::to_string(config.machines) + "m-" +
                       std::to_string(config.jobs) + "j"};
  options.seeds = config.seeds;
  options.threads = config.threads;
  options.metadata["experiment"] = "large_scale";
  options.metadata["machines"] = config.machines;
  options.metadata["jobs"] = config.jobs;
  options.metadata["iterations"] = config.iterations;
  options.metadata["policies"] = json::Array{
      json::Value("BF"), json::Value("FCFS"), json::Value("TOPO-AWARE"),
      json::Value("TOPO-AWARE-P")};

  const bool include_curves = config.include_curves;
  const int machines = config.machines;
  const int jobs = config.jobs;
  const long long iterations = config.iterations;
  return run_sweep(options, [=](const ReplicaContext& context) {
    exp::LargeScaleOptions replica;
    replica.machines = machines;
    replica.jobs = jobs;
    replica.iterations = iterations;
    replica.seed = context.seed;
    return large_scale_payload(replica, include_curves);
  });
}

metrics::Summary find_aggregate(const SweepResult& result,
                                const std::string& scenario,
                                const std::string& metric) {
  for (const MetricAggregate& aggregate : result.aggregates) {
    if (aggregate.scenario == scenario && aggregate.metric == metric) {
      return aggregate.summary;
    }
  }
  return metrics::Summary{};
}

std::string render_large_scale_table(const SweepResult& result) {
  const int seeds = static_cast<int>(result.options.seeds.size());
  const bool show_ci = seeds > 1;
  metrics::Table table({"scenario", "policy", "SLO violations",
                        show_ci ? "QoS mean +-CI95" : "QoS mean", "QoS p95",
                        show_ci ? "QoS+wait mean +-CI95" : "QoS+wait mean",
                        "mean wait(s)", "mean decision(us)"});
  const auto cell = [&](const metrics::Summary& s, int precision) {
    std::string text = util::format_double(s.mean, precision);
    if (show_ci) text += " +-" + util::format_double(s.ci95_half, precision);
    return text;
  };
  for (const std::string& scenario : result.options.scenarios) {
    for (const char* policy : {"BF", "FCFS", "TOPO-AWARE", "TOPO-AWARE-P"}) {
      const std::string prefix = std::string("policies.") + policy + ".";
      table.add_row(
          {scenario, policy,
           cell(find_aggregate(result, scenario, prefix + "slo_violations"), 1),
           cell(find_aggregate(result, scenario, prefix + "qos_mean"), 3),
           cell(find_aggregate(result, scenario, prefix + "qos_p95"), 3),
           cell(find_aggregate(result, scenario, prefix + "qos_wait_mean"), 3),
           cell(find_aggregate(result, scenario, prefix + "mean_wait_s"), 1),
           cell(find_aggregate(result, scenario,
                               prefix + "timing.mean_decision_us"),
                1)});
    }
  }
  return table.render();
}

json::Value fig8_payload() {
  const topo::TopologyGraph minsky = topo::builders::power8_minsky();
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const std::vector<jobgraph::JobRequest> jobs =
      exp::table1_jobs(model, minsky);

  json::Object policies;
  for (const sched::Policy policy :
       {sched::Policy::kBestFit, sched::Policy::kFcfs,
        sched::Policy::kTopoAware, sched::Policy::kTopoAwareP}) {
    exp::SchedulerStats stats;
    const sched::DriverReport report =
        exp::run_policy(policy, jobs, minsky, model, {}, &stats);
    json::Object entry;
    entry["cumulative_time_s"] = report.recorder.makespan();
    entry["slo_violations"] = report.recorder.slo_violations();
    entry["mean_wait_s"] = report.recorder.mean_waiting_time();
    entry["sched_stats"] = scheduler_stats_json(stats);
    json::Array job_array;
    for (const cluster::JobRecord& record : report.recorder.records()) {
      json::Object job;
      job["id"] = record.id;
      job["start_s"] = record.start;
      job["end_s"] = record.end;
      json::Array gpus;
      for (const int gpu : record.gpus) gpus.push_back(gpu);
      job["gpus"] = std::move(gpus);
      job["utility"] = record.placement_utility;
      job["p2p"] = record.p2p;
      job["qos_slowdown"] = record.qos_slowdown();
      job["qos_wait_slowdown"] = record.qos_wait_slowdown();
      job_array.push_back(std::move(job));
    }
    entry["jobs"] = std::move(job_array);
    policies[std::string(sched::to_string(policy))] = std::move(entry);
  }

  json::Object doc;
  doc["schema_version"] = kBenchSchemaVersion;
  doc["experiment"] = "fig8_prototype";
  doc["policies"] = std::move(policies);
  return doc;
}

}  // namespace gts::runner
