// The benchmark's workloads behind one interface, so main() can run any of
// them the same way: set up several times, then repeat the measured unit
// until the run's time is spent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "host_speed.hpp"

namespace perfbench {

struct Size {
  bool smoke = false;  // tiny inputs for the benchmark's own tests
};

/// Host seconds of one set-up, by part.
struct SetupTimes {
  double topo_s = 0.0;
  double trace_s = 0.0;
  double driver_s = 0.0;
  int jobs = 0;
};

/// Host seconds of one repetition. `scaled_s` holds, in a fixed order,
/// each measured stretch's time divided by the host's slowdown over it
/// (HostSpeed::scale); the stretches cover the work `wall_s` times.
/// `spanned_s` covers the code a traced repetition records spans over;
/// comparing it between traced and untraced repetitions gives the
/// tracing overhead.
struct RepTimes {
  double wall_s = 0.0;
  std::vector<double> scaled_s;
  double spanned_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds topology, model and trace from the seed and constructs the
  /// driver or daemon, replacing whatever an earlier set-up built.
  virtual SetupTimes setup() = 0;
  /// Work done once per run after the last set-up, outside the measured
  /// time; adds its output checks to `report`.
  virtual void prepare(Report& report) { (void)report; }
  /// One measured repetition on the last set-up's inputs; adds its output
  /// checks to `report` and returns its times, ending each measured
  /// stretch with `host.scale`. A traced repetition records spans into
  /// `spans` and may do extra classification work; only untraced
  /// repetitions feed the host-time metrics.
  virtual RepTimes run(bool traced, SpanLog& spans, Report& report,
                       HostSpeed& host) = 0;
  /// Adds the workload's metrics after the last repetition; `spans` are
  /// the last traced repetition's (a disabled log in untraced runs).
  virtual void summarize(const SpanLog& spans, Report& report) = 0;
};

std::unique_ptr<Workload> make_fig11(std::uint64_t seed, Size size);
std::unique_ptr<Workload> make_scale_light(std::uint64_t seed, Size size);
/// `layers`: a traced run, which adds the open loop and an in-process
/// replay of every repetition for the ledger and per-layer metrics.
std::unique_ptr<Workload> make_daemon(std::uint64_t seed, Size size,
                                      const std::string& socket_dir,
                                      bool layers);

}  // namespace perfbench
