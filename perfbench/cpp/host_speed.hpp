// Host-speed reference: a fixed piece of CPU work compiled into the
// benchmark, so it does not change when the scheduler's code does. On a
// shared machine the whole host runs slower for stretches of seconds to
// minutes, as other tenants load the caches and memory: on a shared
// 4-vCPU VM, 86 back-to-back scale-light repetitions of one process
// took 1.05-2.17 s. Timing the reference before and after each measured
// stretch tells how slow the host ran meanwhile, and dividing the
// stretch's time by that slowdown leaves what the code costs at the
// reference's nominal speed.
#pragma once

#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// The reference's time on an unloaded host (a 4-vCPU Xeon VM); a
  /// slowdown of 1 means the host ran at this speed.
  static constexpr double kNominalSeconds = 0.05;

  /// Times the reference once; the first sample starts the first
  /// stretch.
  void sample();
  /// Ends a measured stretch that took `seconds`: samples the reference
  /// and returns `seconds` divided by the host's slowdown over the
  /// stretch, the mean time of the samples before and after it over
  /// kNominalSeconds.
  double scale(double seconds);
  /// Median time of all samples so far.
  double median_seconds() const;

 private:
  std::vector<double> samples_;
};

}  // namespace perfbench
