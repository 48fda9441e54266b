// Cluster simulation: generate a Section 5.3 workload and run it through
// one or all scheduling policies on a cluster of Minsky machines.
//
//   cluster_sim --machines 20 --jobs 500 --policy all --seed 7
#include <cstdio>
#include <string>

#include "exp/scenarios.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "perf/model.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace gts;
  util::CliParser cli;
  cli.add_option("machines", "number of Minsky machines", "5");
  cli.add_option("jobs", "number of jobs", "100");
  cli.add_option("policy", "fcfs | bf | topo | topo-p | all", "all");
  cli.add_option("seed", "workload seed", "42");
  cli.add_option("iterations", "training iterations per job", "250");
  cli.add_option("lambda", "arrivals per minute (0 = scale with machines)",
                 "0");
  if (auto status = cli.parse(argc, argv); !status) {
    std::fprintf(stderr, "%s\n%s", status.error().message.c_str(),
                 cli.usage(argv[0]).c_str());
    return 1;
  }

  const int machines = static_cast<int>(cli.get_int("machines"));
  const topo::TopologyGraph topology = topo::builders::cluster(
      machines, topo::builders::MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());

  trace::GeneratorOptions gen;
  gen.job_count = static_cast<int>(cli.get_int("jobs"));
  gen.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  gen.iterations = cli.get_int("iterations");
  gen.arrival_rate_per_minute =
      cli.get_double("lambda") > 0.0
          ? cli.get_double("lambda")
          : 10.0 * static_cast<double>(machines) / 5.0;
  const auto jobs = trace::generate_workload(gen, model, topology);
  std::printf(
      "cluster: %d machines (%d GPUs) | workload: %d jobs, lambda %.1f/min, "
      "seed %llu\n\n",
      machines, topology.gpu_count(), gen.job_count,
      gen.arrival_rate_per_minute,
      static_cast<unsigned long long>(gen.seed));

  std::vector<sched::Policy> policies;
  const std::string which = cli.get("policy");
  if (which == "fcfs") policies = {sched::Policy::kFcfs};
  else if (which == "bf") policies = {sched::Policy::kBestFit};
  else if (which == "topo") policies = {sched::Policy::kTopoAware};
  else if (which == "topo-p") policies = {sched::Policy::kTopoAwareP};
  else {
    policies = {sched::Policy::kBestFit, sched::Policy::kFcfs,
                sched::Policy::kTopoAware, sched::Policy::kTopoAwareP};
  }

  metrics::Table table({"policy", "makespan(s)", "SLO violations",
                        "mean wait(s)", "QoS mean", "QoS p95",
                        "decisions", "mean decision(us)"});
  for (const sched::Policy policy : policies) {
    const auto report = exp::run_policy(policy, jobs, topology, model);
    const auto qos = metrics::summarize(report.recorder.sorted_qos_slowdowns());
    table.add_row({std::string(sched::to_string(policy)),
                   util::format_double(report.recorder.makespan(), 1),
                   std::to_string(report.recorder.slo_violations()),
                   util::format_double(report.recorder.mean_waiting_time(), 1),
                   util::format_double(qos.mean, 3),
                   util::format_double(qos.p95, 3),
                   std::to_string(report.decision_count),
                   util::format_double(report.mean_decision_seconds() * 1e6,
                                       1)});
  }
  std::fputs(table.render("policy comparison").c_str(), stdout);
  return 0;
}
