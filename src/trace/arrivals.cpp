#include "trace/arrivals.hpp"

namespace gts::trace {

std::vector<double> poisson_arrivals(int count, double per_minute,
                                     util::Rng& rng, double start_time) {
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<size_t>(count));
  const double rate_per_second = per_minute / 60.0;
  double t = start_time;
  for (int i = 0; i < count; ++i) {
    t += rng.exponential(rate_per_second);
    arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace gts::trace
