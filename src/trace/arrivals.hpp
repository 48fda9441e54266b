// Arrival processes for workload generation.
//
// The paper's experiments draw job arrivals from a Poisson process with
// rate lambda = 10 jobs per minute (Sections 5.2.1 and 5.3).
#pragma once

#include <vector>

#include "util/rng.hpp"

namespace gts::trace {

/// Generates `count` arrival timestamps (seconds) of a Poisson process
/// with `per_minute` expected arrivals per minute, starting after
/// `start_time`.
std::vector<double> poisson_arrivals(int count, double per_minute,
                                     util::Rng& rng, double start_time = 0.0);

}  // namespace gts::trace
