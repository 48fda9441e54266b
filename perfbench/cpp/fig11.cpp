// fig11: the paper's Scenario 2 shape (Section 5.5.2): Minsky machines
// under lambda = 2 jobs/min per machine, 250 iterations per job. BF,
// FCFS, TOPO-AWARE and TOPO-AWARE-P run one after another on each trace
// through sched::Driver, each behind a forwarding decorator that times
// every Scheduler::place offer. Queue-bound: most offers are re-offers of
// jobs that were declined before.
//
// At this load the re-offer storm is chaotic: one 600-machine trace
// takes 2-3x longer on one seed than on another, and one 50-machine
// trace's time still varies by ~20% (standard deviation over mean). A
// repetition therefore sums kTraces independent 50-machine traces (500
// jobs each, the same 5-minute arrival horizon), so its total varies by
// ~3% between seeds, while a run still holds several repetitions. Per
// unit of work, smaller traces average out more seed noise: a trace of
// 100 machines and 1000 jobs varies by ~28% and costs 3.5 times as much.
#include <array>
#include <optional>

#include "perf/params.hpp"
#include "sched/driver.hpp"
#include "sched/topo_aware.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gts;

/// Forwarding decorator handed to sched::Driver in place of the policy
/// under test. It times every place() call by outcome. In traced runs it
/// also records one span per call and classifies each decline with a
/// separate sched::filter_hosts call on the same inputs: either too few
/// usable GPUs are free (no fit) or the policy chose to wait (postponed).
class PlacementProbe final : public sched::Scheduler {
 public:
  struct Stats {
    long long placed = 0;
    long long declined = 0;
    double place_us = 0.0;  // summed over all offers
    /// Per-offer latencies, kept only when the probe keeps samples.
    LogHistogram placed_us;
    LogHistogram declined_us;
    long long no_fit = 0;
    long long postponed = 0;
    double filter_s = 0.0;

    long long offers() const { return placed + declined; }
    double place_s() const { return place_us * 1e-6; }
  };

  PlacementProbe(sched::Scheduler& inner, SpanLog& spans, bool keep_samples)
      : inner_(inner), spans_(spans), keep_samples_(keep_samples) {}

  void set_parent_span(int span) noexcept { parent_ = span; }
  const Stats& stats() const noexcept { return stats_; }

  std::string name() const override { return inner_.name(); }
  bool blocking_queue() const override { return inner_.blocking_queue(); }
  void set_parallel_scoring(int threads) override {
    inner_.set_parallel_scoring(threads);
  }

  std::optional<sched::Placement> place(
      const jobgraph::JobRequest& request,
      const cluster::ClusterState& state) override {
    const Clock::time_point start = Clock::now();
    std::optional<sched::Placement> placement = inner_.place(request, state);
    const Clock::time_point end = Clock::now();
    const double us = seconds_between(start, end) * 1e6;
    ++(placement ? stats_.placed : stats_.declined);
    stats_.place_us += us;
    if (keep_samples_) (placement ? stats_.placed_us : stats_.declined_us).add(us);
    if (!spans_.enabled()) return placement;
    spans_.add("sched.place", start, end, parent_, request.id);
    if (!placement) {
      const Clock::time_point filter_start = Clock::now();
      const std::size_t usable = sched::filter_hosts(request, state).size();
      const Clock::time_point filter_end = Clock::now();
      spans_.add("sched.filter", filter_start, filter_end, parent_,
                 request.id);
      stats_.filter_s += seconds_between(filter_start, filter_end);
      if (usable < static_cast<std::size_t>(request.num_gpus)) {
        ++stats_.no_fit;
      } else {
        ++stats_.postponed;
      }
    }
    return placement;
  }

 private:
  sched::Scheduler& inner_;
  SpanLog& spans_;
  bool keep_samples_;
  int parent_ = -1;
  Stats stats_;
};

constexpr std::array<sched::Policy, 4> kPolicies = {
    sched::Policy::kBestFit, sched::Policy::kFcfs, sched::Policy::kTopoAware,
    sched::Policy::kTopoAwareP};
constexpr std::size_t kTopoAwareP = 3;

/// One policy's scheduler, decorator and driver. Heap-held so the
/// allocation listener can keep a pointer to `allocations`.
struct PolicyRun {
  std::unique_ptr<sched::Scheduler> scheduler;
  std::unique_ptr<PlacementProbe> probe;
  std::unique_ptr<sched::Driver> driver;
  long long allocations = 0;
};

/// What one repetition measured for one policy, summed over the traces.
struct PolicyFigures {
  double wall_s = 0.0;
  PlacementProbe::Stats probe;
  std::uint64_t events = 0;
  long long allocations = 0;
  sched::PlacementCacheStats cache;
  partition::DrbStats drb;
  double wait_s = 0.0;  // summed over placed jobs
  double qos_wait = 0.0;  // summed over finished jobs
  long long jobs = 0;
  int slo_violations = 0;
  std::uint64_t digest = kFnvOffset;  // folded over the traces' digests

  void add(const PlacementProbe::Stats& stats) {
    probe.placed += stats.placed;
    probe.declined += stats.declined;
    probe.place_us += stats.place_us;
    probe.placed_us.merge(stats.placed_us);
    probe.declined_us.merge(stats.declined_us);
    probe.no_fit += stats.no_fit;
    probe.postponed += stats.postponed;
    probe.filter_s += stats.filter_s;
  }
};

class Fig11 final : public Workload {
 public:
  Fig11(std::uint64_t seed, Size size)
      : seed_(seed),
        machines_(size.smoke ? 24 : 50),
        jobs_per_trace_(size.smoke ? 240 : 500),
        traces_(size.smoke ? 2 : kTraces) {}

  SetupTimes setup() override {
    const Clock::time_point start = Clock::now();
    topology_ = std::make_unique<topo::TopologyGraph>(
        topo::builders::make_cluster(
            machines_, 4, topo::builders::MachineShape::kPower8Minsky));
    const Clock::time_point built = Clock::now();
    traces_jobs_.clear();
    for (int i = 0; i < traces_; ++i) {
      trace::GeneratorOptions generator;
      generator.job_count = jobs_per_trace_;
      generator.seed = seed_ * 1000003ULL + static_cast<std::uint64_t>(i);
      generator.iterations = 250;
      // Scenario 2 keeps the 5-machine scenario's offered load per
      // machine: lambda = 10 jobs/min per 5 machines.
      generator.arrival_rate_per_minute = 2.0 * machines_;
      traces_jobs_.push_back(
          trace::generate_workload(generator, model_, *topology_));
    }
    const Clock::time_point generated = Clock::now();
    for (int i = 0; i < traces_; ++i) make_runs(no_spans_);
    const Clock::time_point constructed = Clock::now();
    return {seconds_between(start, built), seconds_between(built, generated),
            seconds_between(generated, constructed), traces_ * jobs_per_trace_};
  }

  RepTimes run(bool traced, SpanLog& spans, Report& report,
               HostSpeed& host) override {
    std::vector<PolicyFigures> figures(kPolicies.size());
    Samples write_ms;
    RepTimes times;
    double stretch_s = 0.0;
    for (std::size_t t = 0; t < traces_jobs_.size(); ++t) {
      // Spans and decline classification cover TOPO-AWARE-P on the first
      // kTracedTraces traces, which keeps the span log near 100k entries.
      const bool spanned = t < static_cast<std::size_t>(kTracedTraces);
      SpanLog& tap_spans = spanned ? spans : no_spans_;
      std::vector<std::unique_ptr<PolicyRun>> runs = make_runs(tap_spans);
      for (std::size_t p = 0; p < kPolicies.size(); ++p) {
        const double wall_s = run_policy(
            traces_jobs_[t], *runs[p], traced,
            p == kTopoAwareP ? tap_spans : no_spans_, figures[p], write_ms,
            report);
        if (spanned && p == kTopoAwareP) times.spanned_s += wall_s;
        stretch_s += wall_s;
      }
      // A repetition lasts several seconds, longer than the host keeps
      // one speed, so every kStretchTraces traces end a stretch.
      if ((t + 1) % kStretchTraces == 0 || t + 1 == traces_jobs_.size()) {
        times.scaled_s.push_back(host.scale(stretch_s));
        stretch_s = 0.0;
      }
    }
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      const std::string policy(sched::to_string(kPolicies[p]));
      report.check_digest(policy, figures[p].digest);
      times.wall_s += figures[p].wall_s;
      if (!traced) policy_walls_[p].push_back(figures[p].wall_s);
    }
    if (!traced) {
      write_ms_.add(write_ms);
      // The layer metrics follow TOPO-AWARE-P, the policy all three
      // workloads share; the other policies appear in the ledger.
      const PolicyFigures& tap = figures[kTopoAwareP];
      LogHistogram all_us = tap.probe.placed_us;
      all_us.merge(tap.probe.declined_us);
      layer_reps_.push_back(
          {tap.jobs, tap.probe.offers(), tap.probe.placed, tap.events,
           tap.probe.place_s(), tap.wall_s - tap.probe.place_s(),
           all_us.quantile(0.50), all_us.quantile(0.99)});
    }
    (traced ? traced_ : untraced_) = std::move(figures);
    return times;
  }

  void summarize(const SpanLog& spans, Report& report) override {
    const PolicyFigures& tap = untraced_[kTopoAwareP];
    const auto jobs = static_cast<double>(tap.jobs);
    report.end_to_end.push_back(
        {"qos_wait_mean", tap.qos_wait / jobs, "ratio"});
    add_write_latency(write_ms_, report);
    report.ledger.push_back({"e2e.mean_wait_s", tap.wait_s / jobs, "s"});
    report.ledger.push_back(
        {"e2e.slo_violations", static_cast<double>(tap.slo_violations),
         "count"});
    add_sched_layers(layer_reps_, report);
    if (spans.enabled()) add_span_ledger(spans, report);

    auto& ledger = report.ledger;
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      const PolicyFigures& f = untraced_[p];
      const std::string prefix =
          "sched.policy." + std::string(sched::to_string(kPolicies[p])) + ".";
      ledger.push_back({prefix + "wall_s", fastest(policy_walls_[p]), "s"});
      ledger.push_back({prefix + "place_s", f.probe.place_s(), "s"});
      ledger.push_back(
          {prefix + "offers", static_cast<double>(f.probe.offers()), "count"});
      ledger.push_back({prefix + "offers_per_job",
                        static_cast<double>(f.probe.offers()) / jobs,
                        "ratio"});
    }
    ledger.push_back({"sched.place.placed_us.p50",
                      tap.probe.placed_us.quantile(0.50), "us"});
    ledger.push_back({"sched.place.placed_us.p99",
                      tap.probe.placed_us.quantile(0.99), "us"});
    ledger.push_back({"sched.place.declined_us.p50",
                      tap.probe.declined_us.quantile(0.50), "us"});
    ledger.push_back({"sched.place.declined_us.p99",
                      tap.probe.declined_us.quantile(0.99), "us"});
    ledger.push_back({"sched.cache.lookups",
                      static_cast<double>(tap.cache.lookups), "count"});
    ledger.push_back({"sched.cache.hit_rate", tap.cache.hit_rate(), "ratio"});
    ledger.push_back({"partition.bipartitions",
                      static_cast<double>(tap.drb.bipartitions), "count"});
    ledger.push_back({"partition.fm_passes",
                      static_cast<double>(tap.drb.fm_passes), "count"});
    ledger.push_back({"cluster.allocations",
                      static_cast<double>(tap.allocations), "count"});
    if (!traced_.empty()) {
      const PlacementProbe::Stats& classified = traced_[kTopoAwareP].probe;
      ledger.push_back({"sched.decline.no_fit.n",
                        static_cast<double>(classified.no_fit), "count"});
      ledger.push_back({"sched.decline.postponed.n",
                        static_cast<double>(classified.postponed), "count"});
      ledger.push_back({"sched.filter_s", classified.filter_s, "s"});
    }
  }

 private:
  static constexpr int kTraces = 64;
  static constexpr int kTracedTraces = 8;
  static constexpr std::size_t kStretchTraces = 8;

  /// Drives one policy over one trace the way the daemon is driven: each
  /// job is submitted and the clock advanced to its arrival, then the
  /// cluster drains. Adds the run's figures, write latencies and output
  /// checks; returns its wall seconds.
  double run_policy(const std::vector<jobgraph::JobRequest>& jobs,
                    PolicyRun& run, bool traced, SpanLog& spans,
                    PolicyFigures& figures, Samples& write_ms,
                    Report& report) {
    const std::string policy(run.scheduler->name());
    const int span = spans.open("sched.driver", -1);
    run.probe->set_parent_span(span);
    long long refused = 0;
    const Clock::time_point start = Clock::now();
    for (const jobgraph::JobRequest& job : jobs) {
      const Clock::time_point submit = Clock::now();
      if (run.driver->submit(job) != sched::SubmitResult::kAccepted) {
        ++refused;
      }
      run.driver->advance_to(job.arrival_time);
      if (!traced) write_ms.add(seconds_between(submit, Clock::now()) * 1e3);
    }
    run.driver->advance_all();
    const double wall_s = seconds_between(start, Clock::now());
    figures.wall_s += wall_s;
    spans.close(span);

    const RecordScan scan = RecordScan::of(*run.driver, jobs);
    report.attempted += static_cast<long long>(jobs.size());
    if (scan.failures() > 0) {
      report.fail(scan.failures(), policy + ": " + scan.first_failure());
    }
    report.fail(refused, policy + ": submits refused");
    report.fail(run.driver->counters().rejected_jobs,
                policy + ": jobs rejected");
    report.check_status(policy + " validate", run.driver->validate());

    figures.add(run.probe->stats());
    figures.events += run.driver->counters().events;
    figures.allocations += run.allocations;
    if (const auto* topo_aware = dynamic_cast<const sched::TopoAwareScheduler*>(
            run.scheduler.get())) {
      const sched::PlacementCacheStats cache = topo_aware->cache_stats();
      figures.cache.lookups += cache.lookups;
      figures.cache.hits += cache.hits;
      figures.drb.bipartitions += topo_aware->drb_stats().bipartitions;
      figures.drb.fm_passes += topo_aware->drb_stats().fm_passes;
    }
    figures.wait_s += scan.mean_wait_s() * scan.placed();
    figures.qos_wait += scan.qos_wait_mean() * static_cast<double>(jobs.size());
    figures.jobs += static_cast<long long>(jobs.size());
    figures.slo_violations += scan.slo_violations();
    figures.digest = fnv1a(figures.digest, scan.digest());
    return wall_s;
  }

  /// The four policies' drivers for one trace; TOPO-AWARE-P's decorator
  /// records into `tap_spans`, the others record nothing.
  std::vector<std::unique_ptr<PolicyRun>> make_runs(SpanLog& tap_spans) {
    std::vector<std::unique_ptr<PolicyRun>> runs;
    for (const sched::Policy policy : kPolicies) {
      auto run = std::make_unique<PolicyRun>();
      run->scheduler = sched::make_scheduler(policy);
      // Per-offer latencies for TOPO-AWARE-P only, the policy the layer
      // metrics follow; the others skip the bookkeeping in their walls.
      const bool tap = policy == sched::Policy::kTopoAwareP;
      run->probe = std::make_unique<PlacementProbe>(
          *run->scheduler, tap ? tap_spans : no_spans_, tap);
      sched::DriverOptions options;
      options.record_series = false;
      long long* allocations = &run->allocations;
      options.allocation_listener = [allocations](std::span<const int>,
                                                  bool allocated) {
        if (allocated) ++*allocations;
      };
      run->driver = std::make_unique<sched::Driver>(*topology_, model_,
                                                    *run->probe, options);
      runs.push_back(std::move(run));
    }
    return runs;
  }

  std::uint64_t seed_;
  int machines_;
  int jobs_per_trace_;
  int traces_;
  perf::DlWorkloadModel model_{perf::CalibrationParams::paper_minsky()};
  std::unique_ptr<topo::TopologyGraph> topology_;
  std::vector<std::vector<jobgraph::JobRequest>> traces_jobs_;
  SpanLog no_spans_{false};

  LatencyReps write_ms_;
  std::vector<SchedLayers> layer_reps_;
  std::array<std::vector<double>, kPolicies.size()> policy_walls_;
  std::vector<PolicyFigures> untraced_;
  std::vector<PolicyFigures> traced_;
};

}  // namespace

std::unique_ptr<Workload> make_fig11(std::uint64_t seed, Size size) {
  return std::make_unique<Fig11>(seed, size);
}

}  // namespace perfbench
