// Interference profiler: builds a job profile the way Section 4.2
// describes — "performing a combinatorial collocation of a set of known
// applications" — by running every (NN, batch) x (NN, batch) pairing on
// the simulated machine and measuring the mutual slowdown. The resulting
// table is exactly what feeds Eq. 4 in the scheduler.
#include <cstdio>
#include <string>

#include "exp/scenarios.hpp"
#include "metrics/table.hpp"
#include "perf/model.hpp"
#include "perf/profile.hpp"
#include "topo/builders.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace gts;
  util::CliParser cli;
  cli.add_option("nn", "NN to profile: AlexNet | CaffeRef | GoogLeNet",
                 "AlexNet");
  if (auto status = cli.parse(argc, argv); !status) {
    std::fprintf(stderr, "%s\n%s", status.error().message.c_str(),
                 cli.usage(argv[0]).c_str());
    return 1;
  }
  const auto nn = jobgraph::neural_net_from_string(cli.get("nn"));
  if (!nn) {
    std::fprintf(stderr, "unknown NN '%s'\n", cli.get("nn").c_str());
    return 1;
  }

  const topo::TopologyGraph machine = topo::builders::power8_minsky();
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());

  std::printf("Profiling %s (2-GPU data-parallel) on the Minsky machine\n\n",
              cli.get("nn").c_str());

  // Solo anchors: best (pack) and sub-optimal (spread) placements.
  metrics::Table solo({"batch", "solo pack (s/100 iter)",
                       "solo spread (s/100 iter)", "spread penalty"});
  for (int b = 0; b < jobgraph::kBatchClassCount; ++b) {
    const auto batch = static_cast<jobgraph::BatchClass>(b);
    const jobgraph::JobRequest job = perf::make_profiled_dl(
        0, 0.0, *nn, jobgraph::representative_batch_size(batch), 2, 0.5,
        model, machine, 100);
    const double spread_time = model.completion_time(
        job, perf::spread_placement(machine, job.num_gpus), machine);
    solo.add_row(
        {std::string(jobgraph::to_string(batch)),
         util::format_double(job.profile.solo_time_pack, 2),
         util::format_double(spread_time, 2),
         util::format_double(spread_time / job.profile.solo_time_pack, 3)});
  }
  std::fputs(solo.render("solo placement anchors (Section 4.2)").c_str(),
             stdout);

  // Combinatorial collocation: run both jobs together on one machine and
  // measure the suffered slowdown end to end through the simulator.
  std::printf("\n");
  metrics::Table matrix({"vs co-runner ->", "tiny", "small", "medium",
                         "big"});
  for (int mine = 0; mine < jobgraph::kBatchClassCount; ++mine) {
    std::vector<std::string> row;
    row.push_back(std::string(
        jobgraph::to_string(static_cast<jobgraph::BatchClass>(mine))));
    for (int other = 0; other < jobgraph::kBatchClassCount; ++other) {
      // Job A packs on socket 0, co-runner B on socket 1, via the driver.
      std::vector<jobgraph::JobRequest> jobs;
      jobs.push_back(perf::make_profiled_dl(
          0, 0.0, *nn,
          jobgraph::representative_batch_size(
              static_cast<jobgraph::BatchClass>(mine)),
          2, 0.0, model, machine, 200));
      jobs.push_back(perf::make_profiled_dl(
          1, 0.0, jobgraph::NeuralNet::kAlexNet,
          jobgraph::representative_batch_size(
              static_cast<jobgraph::BatchClass>(other)),
          2, 0.0, model, machine, 4000));
      const auto report = exp::run_policy(sched::Policy::kTopoAware, jobs,
                                          machine, model);
      const auto* record = report.recorder.find(0);
      const double slowdown =
          record->execution_time() / record->best_solo_time - 1.0;
      row.push_back(util::format_double(slowdown, 3));
    }
    matrix.add_row(std::move(row));
  }
  std::fputs(matrix
                 .render("measured collocation slowdown (co-runner is a "
                         "2-GPU AlexNet; Fig. 6 methodology)")
                 .c_str(),
             stdout);
  return 0;
}
