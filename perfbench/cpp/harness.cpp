#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

#include <sys/resource.h>

namespace perfbench {

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::quantile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(p, 0.0, 1.0) *
                      static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(rank));
  const std::size_t upper = std::min(lower + 1, sorted.size() - 1);
  const double fraction = rank - static_cast<double>(lower);
  return sorted[lower] + fraction * (sorted[upper] - sorted[lower]);
}

namespace {
constexpr double kLogStep = 1.01;
constexpr std::size_t kLogBuckets = 2400;  // kMin * 1.01^2400 ~ 2.3e8
}  // namespace

LogHistogram::LogHistogram() : counts_(kLogBuckets, 0) {}

void LogHistogram::add(double value) {
  const double steps =
      value > kMin ? std::log(value / kMin) / std::log(kLogStep) : 0.0;
  const auto bucket = std::min(static_cast<std::size_t>(steps),
                               kLogBuckets - 1);
  ++counts_[bucket];
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < kLogBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LogHistogram::quantile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<long long>(
      std::clamp(p, 0.0, 1.0) * static_cast<double>(count_ - 1));
  long long seen = 0;
  std::size_t bucket = 0;
  for (; bucket + 1 < kLogBuckets; ++bucket) {
    seen += counts_[bucket];
    if (seen > rank) break;
  }
  return kMin * std::pow(kLogStep, static_cast<double>(bucket) + 0.5);
}

double median(std::vector<double> values) {
  Samples samples;
  for (const double value : values) samples.add(value);
  return samples.quantile(0.5);
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double sum_of_medians(const std::vector<std::vector<double>>& reps) {
  double sum = 0.0;
  for (std::size_t j = 0; !reps.empty() && j < reps.front().size(); ++j) {
    std::vector<double> visits;
    for (const std::vector<double>& rep : reps) visits.push_back(rep[j]);
    sum += median(std::move(visits));
  }
  return sum;
}

int SpanLog::open(const char* name, int parent, long long job) {
  if (!enabled_) return -1;
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, now, now, parent, job});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
}

void SpanLog::add(const char* name, Clock::time_point start,
                  Clock::time_point end, int parent, long long job) {
  if (!enabled_) return;
  spans_.push_back({name, start, end, parent, job});
}

std::vector<double> SpanLog::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = seconds_between(spans_[i].start, spans_[i].end);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0) {
      self[static_cast<std::size_t>(parent)] -=
          seconds_between(spans_[i].start, spans_[i].end);
    }
  }
  return self;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  const std::vector<double> self = self_times();
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

double SpanLog::root_self_seconds() const {
  const std::vector<double> self = self_times();
  double roots = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) roots += self[i];
  }
  return roots;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "index,name,start_ns,end_ns,parent,job\n";
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto ns = [origin](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << ',' << span.name << ',' << ns(span.start) << ','
        << ns(span.end) << ',' << span.parent << ',' << span.job << '\n';
  }
  return static_cast<bool>(out);
}

RecordScan::RecordScan(const std::vector<gts::jobgraph::JobRequest>& expected) {
  for (const gts::jobgraph::JobRequest& job : expected) {
    expected_gpus_[job.id] = job.num_gpus;
  }
}

RecordScan RecordScan::of(const gts::sched::DriverApi& driver,
                          const std::vector<gts::jobgraph::JobRequest>& expected) {
  RecordScan scan(expected);
  driver.visit_records([&scan](const gts::cluster::JobRecord& record) {
    scan.add(record);
    return true;
  });
  return scan;
}

void RecordScan::fail(const std::string& why) {
  if (failures_ == 0) first_failure_ = why;
  ++failures_;
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffU;
    hash *= 1099511628211ULL;
  }
  return hash;
}

void RecordScan::add(const gts::cluster::JobRecord& record) {
  const auto mix = [this](std::uint64_t word) { digest_ = fnv1a(digest_, word); };
  const auto bits = [](double value) {
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof word);
    return word;
  };
  mix(static_cast<std::uint64_t>(record.id));
  mix(record.gpus.size());
  for (const int gpu : record.gpus) mix(static_cast<std::uint64_t>(gpu));
  mix(bits(record.start));
  mix(bits(record.end));
  mix(bits(record.placement_utility));

  const std::string job = "job " + std::to_string(record.id);
  const auto expected = expected_gpus_.find(record.id);
  if (expected == expected_gpus_.end()) {
    fail(job + " was never submitted");
    return;
  }
  if (++seen_[record.id] > 1) {
    fail(job + " has more than one record");
    return;
  }
  std::vector<int> gpus = record.gpus;
  std::sort(gpus.begin(), gpus.end());
  if (!record.finished()) {
    fail(job + " did not finish");
  } else if (static_cast<int>(gpus.size()) != expected->second ||
             std::adjacent_find(gpus.begin(), gpus.end()) != gpus.end()) {
    fail(job + " did not run on " + std::to_string(expected->second) +
         " distinct GPUs");
  }
  if (record.placed()) {
    ++placed_;
    wait_total_ += record.waiting_time();
  }
  if (record.finished()) {
    ++finished_;
    qos_wait_total_ += record.qos_wait_slowdown();
  }
  if (record.slo_violated()) ++slo_violations_;
}

long long RecordScan::failures() const {
  long long missing = 0;
  for (const auto& [id, gpus] : expected_gpus_) {
    if (seen_.count(id) == 0) ++missing;
  }
  return failures_ + missing;
}

double RecordScan::qos_wait_mean() const {
  return finished_ == 0 ? 0.0 : qos_wait_total_ / finished_;
}

double RecordScan::mean_wait_s() const {
  return placed_ == 0 ? 0.0 : wait_total_ / placed_;
}

std::string hex64(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

void Report::fail(long long count, const std::string& why) {
  if (count <= 0) return;
  failed += count;
  failures.push_back(why);
}

void Report::check_records(const std::string& name, const RecordScan& scan) {
  if (scan.failures() > 0) {
    fail(scan.failures(), name + ": " + scan.first_failure() + " (" +
                              std::to_string(scan.failures()) + " jobs)");
  }
  check_digest(name, scan.digest());
}

void Report::check_digest(const std::string& name, std::uint64_t digest) {
  for (const auto& [known, value] : digests) {
    if (known != name) continue;
    if (value != digest) {
      fail(1, name + ": decision digest changed between repetitions");
    }
    return;
  }
  digests.emplace_back(name, digest);
}

void Report::check_status(const std::string& what,
                          const gts::util::Status& status) {
  if (!status) fail(1, what + ": " + status.error().message);
}

void add_span_ledger(const SpanLog& spans, Report& report) {
  for (const auto& [name, seconds] : spans.self_seconds()) {
    report.ledger.push_back({"ledger." + name + ".self_s", seconds, "s"});
  }
  report.layers.push_back({"unattributed_s", spans.root_self_seconds(), "s"});
}

void LatencyReps::add(const Samples& rep) {
  p50.push_back(rep.quantile(0.50));
  p99.push_back(rep.quantile(0.99));
  samples = rep.size();
}

void add_write_latency(const LatencyReps& write_ms, Report& report) {
  report.ledger.push_back({"e2e.write_p50_ms", fastest(write_ms.p50), "ms"});
  report.ledger.push_back({"e2e.write_p99_ms", fastest(write_ms.p99), "ms"});
  report.ledger.push_back({"e2e.write_samples",
                           static_cast<double>(write_ms.samples), "count"});
}

void add_sched_layers(const std::vector<SchedLayers>& reps, Report& report) {
  if (reps.empty()) return;
  const SchedLayers& counts = reps.front();
  const auto host = [&reps](double SchedLayers::*field) {
    std::vector<double> values;
    for (const SchedLayers& rep : reps) values.push_back(rep.*field);
    return fastest(values);
  };
  const double self_s = host(&SchedLayers::self_s);
  const auto offers = static_cast<double>(counts.offers);
  const auto events = static_cast<double>(counts.events);
  auto& layers = report.layers;
  layers.push_back({"sched.offers", offers, "count"});
  layers.push_back({"sched.offers_per_job",
                    offers / static_cast<double>(counts.jobs), "ratio"});
  layers.push_back({"sched.place_s", host(&SchedLayers::place_s), "s"});
  layers.push_back({"sched.driver_self_s", self_s, "s"});
  layers.push_back(
      {"sched.place_us.p50", host(&SchedLayers::place_us_p50), "us"});
  layers.push_back(
      {"sched.place_us.p99", host(&SchedLayers::place_us_p99), "us"});
  layers.push_back(
      {"sched.place.placed.n", static_cast<double>(counts.placed), "count"});
  layers.push_back({"cluster.events", events, "count"});
  layers.push_back({"cluster.us_per_event", self_s / events * 1e6, "us"});
  report.ledger.push_back({"sched.place.declined.n",
                           static_cast<double>(counts.offers - counts.placed),
                           "count"});
}

}  // namespace perfbench
