// scale-light: shard::ShardedDriver over 2000 Minsky machines in 16 cells
// of 125, TOPO-AWARE-P, at half the fig11 arrival rate. Placement-bound:
// every job places on its first offer, so the router, candidate scoring
// and cluster events do the work and the re-offer path is bypassed.
#include "perf/params.hpp"
#include "shard/sharded_driver.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gts;

class ScaleLight final : public Workload {
 public:
  ScaleLight(std::uint64_t seed, Size size)
      : seed_(seed),
        machines_(size.smoke ? 64 : 2000),
        shards_(16),
        job_count_(size.smoke ? 400 : 12000) {}

  SetupTimes setup() override {
    const Clock::time_point start = Clock::now();
    topology_ = std::make_unique<topo::TopologyGraph>(
        topo::builders::make_cluster(
            machines_, 4, topo::builders::MachineShape::kPower8Minsky));
    const Clock::time_point built = Clock::now();
    trace::GeneratorOptions generator;
    generator.job_count = job_count_;
    generator.seed = seed_;
    generator.iterations = 250;
    generator.arrival_rate_per_minute = 1.0 * machines_;
    jobs_ = trace::generate_workload(generator, model_, *topology_);
    const Clock::time_point generated = Clock::now();
    make_driver();
    const Clock::time_point constructed = Clock::now();
    return {seconds_between(start, built), seconds_between(built, generated),
            seconds_between(generated, constructed),
            static_cast<int>(jobs_.size())};
  }

  RepTimes run(bool traced, SpanLog& spans, Report& report,
               HostSpeed& host) override {
    const std::unique_ptr<shard::ShardedDriver> driver = make_driver();
    host.sample();  // the stretch starts here, not at the last checks
    const int root = spans.open("run", -1);
    Samples write_ms;
    const Clock::time_point start = Clock::now();
    long long refused = 0;
    for (const jobgraph::JobRequest& job : jobs_) {
      const int span = spans.open("shard.admit", root, job.id);
      const Clock::time_point submit = Clock::now();
      if (driver->submit(job) != sched::SubmitResult::kAccepted) ++refused;
      driver->advance_to(job.arrival_time);
      if (!traced) write_ms.add(seconds_between(submit, Clock::now()) * 1e3);
      spans.close(span);
    }
    const int drain = spans.open("shard.drain", root);
    driver->advance_all();
    spans.close(drain);
    const double wall_s = seconds_between(start, Clock::now());
    spans.close(root);
    const std::vector<double> scaled_s = {host.scale(wall_s)};

    const RecordScan scan = RecordScan::of(*driver, jobs_);
    report.attempted += static_cast<long long>(jobs_.size());
    report.check_records("TOPO-AWARE-P", scan);
    report.fail(refused, "submits refused");
    report.fail(driver->counters().rejected_jobs, "jobs rejected");
    report.check_status("validate", driver->validate());
    if (!traced) {
      write_ms_.add(write_ms);
      figures_ = Figures{};
      figures_.router = driver->router();
      figures_.qos_wait_mean = scan.qos_wait_mean();
      figures_.mean_wait_s = scan.mean_wait_s();
      figures_.slo_violations = scan.slo_violations();
      obs::HistogramData decision_us;
      for (int i = 0; i < driver->shard_count(); ++i) {
        const sched::DriverReport& cell = driver->cell(i).report();
        decision_us.merge(cell.decision_latency_us);
        figures_.cell_advance_s += cell.advance_seconds;
      }
      const sched::DriverCounters counters = driver->counters();
      // Cells keep decision latency as a bucketed histogram; its
      // percentiles interpolate inside a bucket.
      layer_reps_.push_back(
          {static_cast<long long>(jobs_.size()), counters.decision_count,
           scan.placed(), counters.events, counters.decision_seconds,
           wall_s - counters.decision_seconds, decision_us.percentile(0.50),
           decision_us.percentile(0.99)});
    }
    return {wall_s, scaled_s, wall_s};
  }

  void summarize(const SpanLog& spans, Report& report) override {
    const Figures& f = figures_;
    report.end_to_end.push_back({"qos_wait_mean", f.qos_wait_mean, "ratio"});
    add_write_latency(write_ms_, report);
    report.ledger.push_back({"e2e.mean_wait_s", f.mean_wait_s, "s"});
    report.ledger.push_back({"e2e.slo_violations",
                             static_cast<double>(f.slo_violations), "count"});
    add_sched_layers(layer_reps_, report);
    if (spans.enabled()) add_span_ledger(spans, report);

    auto& ledger = report.ledger;
    ledger.push_back(
        {"shard.routed", static_cast<double>(f.router.routed), "count"});
    ledger.push_back(
        {"shard.filtered", static_cast<double>(f.router.filtered), "count"});
    ledger.push_back({"shard.exhausted",
                      static_cast<double>(f.router.exhausted), "count"});
    ledger.push_back({"shard.route_us.p99",
                      f.router.route_latency_us.percentile(0.99), "us"});
    ledger.push_back(
        {"shard.route_s", f.router.route_latency_us.sum() * 1e-6, "s"});
    ledger.push_back({"shard.cell_decision_s",
                      layer_reps_.back().place_s, "s"});
    ledger.push_back({"shard.cell_advance_s", f.cell_advance_s, "s"});
  }

 private:
  /// The last untraced repetition's figures for the ledger and the
  /// simulated metrics.
  struct Figures {
    sched::RouterTelemetry router;
    double cell_advance_s = 0.0;
    double qos_wait_mean = 0.0;
    double mean_wait_s = 0.0;
    int slo_violations = 0;
  };

  std::unique_ptr<shard::ShardedDriver> make_driver() const {
    shard::ShardedOptions options;
    options.shards = shards_;
    options.shard_threads = 1;
    options.policy = sched::Policy::kTopoAwareP;
    options.driver.record_series = false;
    return std::make_unique<shard::ShardedDriver>(*topology_, model_,
                                                  options);
  }

  std::uint64_t seed_;
  int machines_;
  int shards_;
  int job_count_;
  perf::DlWorkloadModel model_{perf::CalibrationParams::paper_minsky()};
  std::unique_ptr<topo::TopologyGraph> topology_;
  std::vector<jobgraph::JobRequest> jobs_;
  LatencyReps write_ms_;
  std::vector<SchedLayers> layer_reps_;
  Figures figures_;
};

}  // namespace

std::unique_ptr<Workload> make_scale_light(std::uint64_t seed, Size size) {
  return std::make_unique<ScaleLight>(seed, size);
}

}  // namespace perfbench
