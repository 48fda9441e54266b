// Shared pieces of the benchmark driver: timing, sample statistics, the
// in-memory span log, decision digests, output checks over job records,
// and the report every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/recorder.hpp"
#include "jobgraph/jobgraph.hpp"
#include "sched/driver_api.hpp"
#include "util/expected.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Raw samples of one quantity. Quantiles interpolate linearly between
/// order statistics, so every sample counts at full precision.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void append(const Samples& other);
  std::size_t size() const noexcept { return values_.size(); }
  double sum() const;
  /// `p` in [0, 1]; 0 when empty.
  double quantile(double p) const;

 private:
  std::vector<double> values_;
};

/// Histogram of positive values in buckets 1% wide on a log scale, from
/// kMin up. Its memory does not grow with the number of values, so a
/// run's peak RSS does not depend on how many it records; a quantile is
/// its bucket's geometric middle, within about 0.5% of the exact value.
class LogHistogram {
 public:
  static constexpr double kMin = 0.01;

  LogHistogram();
  void add(double value);
  void merge(const LogHistogram& other);
  long long count() const noexcept { return count_; }
  /// `p` in [0, 1]; 0 when empty.
  double quantile(double p) const;

 private:
  std::vector<long long> counts_;
  long long count_ = 0;
};

double median(std::vector<double> values);

/// The fastest of several measurements of one host time. Noise on a
/// shared machine only ever slows work down, so the minimum over
/// repetitions follows the code more closely than the median does.
double fastest(const std::vector<double>& values);

/// The sum over stretches of each stretch's median over repetitions;
/// `reps[r][j]` is stretch j of repetition r, and every repetition has
/// the same stretches. 0 when empty.
double sum_of_medians(const std::vector<std::vector<double>>& reps);

/// One 64-bit word folded into an FNV-1a hash, byte by byte.
std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word);
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// Spans of one traced measurement, kept in memory and written once at
/// exit. `parent` is the index of the enclosing span (-1 for a root);
/// spans of one job share `job` (-1 when a span belongs to no job).
/// A disabled log records nothing and returns -1 from open().
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  int open(const char* name, int parent, long long job = -1);
  void close(int index);
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           int parent, long long job);
  /// Exclusive seconds per span name: each span's duration minus the part
  /// its direct children cover.
  std::map<std::string, double> self_seconds() const;
  /// Summed self time of the root spans: time inside the traced region
  /// that no layer span covers.
  double root_self_seconds() const;
  std::size_t size() const noexcept { return spans_.size(); }
  /// One CSV row per span: index,name,start_ns,end_ns,parent,job.
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    long long job;
  };
  std::vector<double> self_times() const;

  bool enabled_;
  std::vector<Span> spans_;
};

/// Facts about one run's job records: the output checks (every expected
/// job finished exactly once on num_gpus distinct GPUs, nothing else),
/// the decision digest (64-bit FNV-1a over job id, GPU list, start/end
/// bits and placement-utility bits, in visiting order), and the
/// simulated quality metrics.
class RecordScan {
 public:
  explicit RecordScan(const std::vector<gts::jobgraph::JobRequest>& expected);

  void add(const gts::cluster::JobRecord& record);
  /// Visits every record of `driver` (its own order).
  static RecordScan of(const gts::sched::DriverApi& driver,
                       const std::vector<gts::jobgraph::JobRequest>& expected);

  std::uint64_t digest() const noexcept { return digest_; }
  /// Expected jobs that did not finish exactly once on their GPU count,
  /// plus records of jobs that were never submitted.
  long long failures() const;
  std::string first_failure() const { return first_failure_; }
  int placed() const noexcept { return placed_; }
  /// Mean QoS+wait slowdown over finished jobs (the Fig. 11 y-axis).
  double qos_wait_mean() const;
  double mean_wait_s() const;
  int slo_violations() const noexcept { return slo_violations_; }

 private:
  void fail(const std::string& why);

  std::map<int, int> expected_gpus_;
  std::map<int, int> seen_;
  std::uint64_t digest_ = kFnvOffset;
  long long failures_ = 0;
  std::string first_failure_;
  int placed_ = 0;
  int finished_ = 0;
  double qos_wait_total_ = 0.0;
  double wait_total_ = 0.0;
  int slo_violations_ = 0;
};

std::string hex64(std::uint64_t value);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` and `layers` are the
/// metric sets named in BENCHMARK.json; `ledger` holds every other layer
/// figure, printed for readers but not part of the result line.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<Metric> ledger;
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;

  void fail(long long count, const std::string& why);
  /// Adds the failures of `scan` and checks its digest under `name`.
  void check_records(const std::string& name, const RecordScan& scan);
  /// Records `digest` under `name`, or fails if another value was
  /// recorded there before (decisions must repeat).
  void check_digest(const std::string& name, std::uint64_t digest);
  /// Fails once, naming `what`, when `status` carries an error.
  void check_status(const std::string& what, const gts::util::Status& status);
};

/// Appends each span name's self time to `report.ledger`, and the root
/// spans' self time as `unattributed_s` to `report.layers`.
void add_span_ledger(const SpanLog& spans, Report& report);

/// Per-repetition percentiles of one latency.
struct LatencyReps {
  std::vector<double> p50;
  std::vector<double> p99;
  std::size_t samples = 0;  // per repetition

  void add(const Samples& rep);
};

/// Adds `e2e.write_p50_ms` and `e2e.write_p99_ms` to the ledger, each the
/// fastest repetition's. They are not result metrics: between runs on a
/// shared machine their quartile distance reached 0.25-0.45 of the
/// median, more than the wall time's.
void add_write_latency(const LatencyReps& write_ms, Report& report);

/// One untraced repetition's TOPO-AWARE-P figures behind the scheduler
/// and cluster layer metrics that every workload reports.
struct SchedLayers {
  long long jobs = 0;
  long long offers = 0;
  long long placed = 0;
  std::uint64_t events = 0;
  double place_s = 0.0;  // time inside Scheduler::place
  double self_s = 0.0;   // the driver's own time: run wall minus place_s
  double place_us_p50 = 0.0;
  double place_us_p99 = 0.0;
};

/// Adds the sched and cluster layer metrics. Counts are the first
/// repetition's (decisions repeat); host times are the fastest ones.
void add_sched_layers(const std::vector<SchedLayers>& reps, Report& report);

}  // namespace perfbench
