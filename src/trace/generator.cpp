#include "trace/generator.hpp"

#include <algorithm>

#include "perf/profile.hpp"
#include "trace/arrivals.hpp"

namespace gts::trace {

std::vector<jobgraph::JobRequest> generate_workload(
    const GeneratorOptions& options, const perf::DlWorkloadModel& model,
    const topo::TopologyGraph& topology) {
  util::Rng rng(options.seed);
  util::Rng arrival_rng = rng.fork(1);
  util::Rng config_rng = rng.fork(2);

  const std::vector<double> arrivals = poisson_arrivals(
      options.job_count, options.arrival_rate_per_minute, arrival_rng);

  std::vector<jobgraph::JobRequest> jobs;
  jobs.reserve(static_cast<size_t>(options.job_count));
  for (int i = 0; i < options.job_count; ++i) {
    const auto batch = static_cast<jobgraph::BatchClass>(
        config_rng.binomial(jobgraph::kBatchClassCount - 1,
                            options.batch_binomial_p));
    const auto nn = static_cast<jobgraph::NeuralNet>(config_rng.binomial(
        jobgraph::kNeuralNetCount - 1, options.nn_binomial_p));

    const double u = config_rng.uniform();
    int num_gpus = 4;
    if (u < options.p_one_gpu) {
      num_gpus = 1;
    } else if (u < options.p_one_gpu + options.p_two_gpu) {
      num_gpus = 2;
    }
    const double min_utility = num_gpus == 1
                                   ? options.min_utility_single_gpu
                                   : options.min_utility_multi_gpu;

    jobs.push_back(perf::make_profiled_dl(
        i, arrivals[static_cast<size_t>(i)], nn,
        jobgraph::representative_batch_size(batch), num_gpus, min_utility,
        model, topology, options.iterations));
  }
  return jobs;
}

}  // namespace gts::trace
