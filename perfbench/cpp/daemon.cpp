// daemon: an in-process svc::ServiceCore behind svc::Server on a Unix
// socket, with gts_schedd defaults (TOPO-AWARE-P, unsharded, max_queue
// 256, batch_max 1), 50 Minsky machines at 1 job/min per machine.
//
// Each job is sent as `submit` followed by `advance` to its arrival
// (writes); every 2nd job adds a `status` of itself and every 40th a
// `list` (reads); a final `advance all` drains the cluster. Three phases
// send this one request stream, each to a fresh core:
//
//   * saturated (every repetition): the stream goes out as fast as the
//     socket accepts it; its wall time is the workload's wall_s, and
//     its final state gives the simulated quality figures;
//   * open loop (traced runs, once, before the measured repetitions):
//     one connection sends on a fixed schedule at kRate requests/s,
//     because job submitters do not wait on the daemon's speed; latency
//     runs from the scheduled send time to the reply;
//   * replay (traced runs, every repetition): the stream goes in-process
//     through parse_request -> handle -> encode, timing each layer; a
//     job's submit plus advance service time gives e2e.write_p50_ms and
//     e2e.write_p99_ms. Traced repetitions record their spans here.
//
// Untraced runs skip the open loop and the replay: neither feeds the
// end-to-end metrics, and without them a run holds twice the saturated
// passes.
//
// The client-side open-loop latencies go to the ledger, not the result
// line: on a shared virtual machine the reactor's and the client's thread
// wake-ups move them by 30% between runs of one seed.
//
// Virtual time only moves on `advance`, so every phase makes the same
// decisions; their digests must agree.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <optional>
#include <string_view>
#include <thread>

#include "jobgraph/manifest.hpp"
#include "perf/params.hpp"
#include "sched/driver.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gts;

constexpr double kRate = 500.0;  // open-loop requests per second

enum Verb { kSubmit, kAdvance, kStatus, kList, kVerbs };
constexpr std::array<const char*, kVerbs> kVerbNames = {"submit", "advance",
                                                        "status", "list"};

struct StreamEntry {
  std::string line;  // newline-terminated request
  long long id = 0;
  int job = -1;
  Verb verb = kSubmit;
};

bool is_write(const StreamEntry& entry) {
  return entry.verb == kSubmit || entry.verb == kAdvance;
}

/// Blocking Unix-socket client connection. One thread may send while
/// another receives; receives time out so a dead daemon cannot hang the
/// benchmark.
class Connection {
 public:
  static std::unique_ptr<Connection> open(const std::string& path) {
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) return nullptr;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    timeval timeout{};
    timeout.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) < 0) {
      ::close(fd);
      return nullptr;
    }
    return std::unique_ptr<Connection>(new Connection(fd));
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send_all(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  std::optional<std::string> read_line() {
    char buffer[65536];
    while (true) {
      const std::size_t newline = in_.find('\n', scanned_);
      if (newline != std::string::npos) {
        std::string line = in_.substr(0, newline);
        in_.erase(0, newline + 1);
        scanned_ = 0;
        return line;
      }
      scanned_ = in_.size();
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n <= 0) return std::nullopt;
      in_.append(buffer, static_cast<std::size_t>(n));
    }
  }

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_;
  std::string in_;
  std::size_t scanned_ = 0;
};

svc::ServiceOptions daemon_options() {
  return svc::ServiceOptions{};  // gts_schedd defaults
}

/// A ServiceCore served on a Unix socket by a reactor thread.
class LiveDaemon {
 public:
  LiveDaemon(const topo::TopologyGraph& topology,
             const perf::DlWorkloadModel& model, const std::string& socket)
      : core_(topology, model, daemon_options()),
        server_(core_, server_options(socket)) {}
  ~LiveDaemon() { (void)stop(); }
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  util::Status start() {
    if (auto status = server_.start(); !status) return status;
    reactor_ = std::thread([this] { run_status_ = server_.run(); });
    return util::Status{};
  }
  /// Stops the reactor and returns its exit status.
  util::Status stop() {
    if (reactor_.joinable()) {
      server_.stop();
      reactor_.join();
    }
    return run_status_;
  }
  svc::ServiceCore& core() { return core_; }

 private:
  static svc::ServerOptions server_options(const std::string& socket) {
    svc::ServerOptions options;
    options.unix_socket = socket;
    options.batch_max = daemon_options().config.batch_max;
    return options;
  }

  svc::ServiceCore core_;
  svc::Server server_;
  util::Status run_status_;
  std::thread reactor_;
};

/// Send, scheduled-send and reply times of one pass over the stream.
struct StreamTimes {
  std::vector<Clock::time_point> due;
  std::vector<Clock::time_point> sent;
  std::vector<Clock::time_point> replied;
  long long bad_replies = 0;
  long long missing = 0;
  std::string first_error;
};

/// Sends the first `count` entries of `stream` on `connection` from a
/// sender thread (on schedule at `rate` requests/s, or as fast as the
/// socket accepts when `rate` is 0) while a receiver thread collects and
/// checks the replies.
StreamTimes drive(Connection& connection,
                  const std::vector<StreamEntry>& stream, std::size_t count,
                  double rate) {
  StreamTimes times;
  times.due.resize(count);
  times.sent.resize(count);
  times.replied.resize(count);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  std::thread sender([&] {
    std::this_thread::sleep_until(start);
    for (std::size_t k = 0; k < count; ++k) {
      times.due[k] =
          rate > 0.0 ? start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(k) / rate))
                     : start;
      if (rate > 0.0) std::this_thread::sleep_until(times.due[k]);
      times.sent[k] = Clock::now();
      if (!connection.send_all(stream[k].line)) return;
    }
  });
  std::thread receiver([&] {
    for (std::size_t k = 0; k < count; ++k) {
      const std::optional<std::string> line = connection.read_line();
      times.replied[k] = Clock::now();
      if (!line) {
        times.missing = static_cast<long long>(count - k);
        if (times.first_error.empty()) times.first_error = "reply missing";
        return;
      }
      const auto response = svc::parse_response(*line);
      if (!response || !response->ok || response->id != stream[k].id) {
        ++times.bad_replies;
        if (times.first_error.empty()) {
          times.first_error = "bad reply to request " +
                              std::to_string(stream[k].id) + ": " + *line;
        }
      }
    }
  });
  sender.join();
  receiver.join();
  return times;
}

/// Sends one request and waits for its reply; true when it is ok.
bool call(Connection& connection, const StreamEntry& entry) {
  if (!connection.send_all(entry.line)) return false;
  const std::optional<std::string> line = connection.read_line();
  if (!line) return false;
  const auto response = svc::parse_response(*line);
  return response && response->ok && response->id == entry.id;
}

class Daemon final : public Workload {
 public:
  Daemon(std::uint64_t seed, Size size, const std::string& socket_dir,
         bool layers)
      : seed_(seed),
        layers_(layers),
        machines_(size.smoke ? 8 : 50),
        job_count_(size.smoke ? 120 : 2500),
        socket_(socket_dir + "/gts-perfbench-" + std::to_string(::getpid()) +
                ".sock") {}

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
    // Half the fig11 rate: at 2 jobs/min per machine a 50-machine daemon
    // queues faster than it places and its 256-job admission bound starts
    // refusing submits after about 1000 jobs.
    generator.arrival_rate_per_minute = 1.0 * machines_;
    jobs_ = trace::generate_workload(generator, model_, *topology_);
    build_stream();
    const Clock::time_point generated = Clock::now();
    {
      LiveDaemon daemon(*topology_, model_, socket_);
      setup_status_ = daemon.start();
    }
    const Clock::time_point constructed = Clock::now();
    return {seconds_between(start, built), seconds_between(built, generated),
            seconds_between(generated, constructed),
            static_cast<int>(jobs_.size())};
  }

  /// The open-loop phase, in traced runs: client-side latencies and the
  /// generator's lateness.
  void prepare(Report& report) override {
    if (!setup_status_ || !layers_) return;  // run() reports a failed start
    const std::size_t paced = stream_.size() - 1;  // all but `advance all`
    StreamTimes open;
    {
      LiveDaemon daemon(*topology_, model_, socket_);
      const std::unique_ptr<Connection> connection = start(daemon, report);
      if (!connection) return;
      open = drive(*connection, stream_, paced, kRate);
      check(open, paced, "open loop", report);
      report.fail(call(*connection, stream_.back()) ? 0 : 1,
                  "open loop: advance all failed");
      finish(daemon, "open loop", report);
    }
    latency_ms_.resize(paced);
    for (std::size_t k = 0; k < paced; ++k) {
      latency_ms_[k] = seconds_between(open.due[k], open.replied[k]) * 1e3;
      (is_write(stream_[k]) ? client_write_ms_ : client_read_ms_)
          .add(latency_ms_[k]);
      late_ms_.add(seconds_between(open.due[k], open.sent[k]) * 1e3);
    }
  }

  RepTimes run(bool traced, SpanLog& spans, Report& report,
               HostSpeed& host) override {
    if (!setup_status_) {
      report.fail(1, "daemon start: " + setup_status_.error().message);
      return {};
    }
    if (layers_ && latency_ms_.empty()) return {};  // the open loop failed

    RepTimes times;
    {
      LiveDaemon daemon(*topology_, model_, socket_);
      const std::unique_ptr<Connection> connection = start(daemon, report);
      if (!connection) return {};
      host.sample();  // the stretch starts here, not at the last replay
      const StreamTimes saturated =
          drive(*connection, stream_, stream_.size(), 0.0);
      times.wall_s =
          seconds_between(saturated.sent.front(), saturated.replied.back());
      check(saturated, stream_.size(), "saturated", report);
      finish(daemon, "saturated", report);
      const RecordScan scan = RecordScan::of(daemon.core().driver(), jobs_);
      quality_ = {scan.qos_wait_mean(), scan.mean_wait_s(),
                  scan.slo_violations()};
    }
    times.scaled_s = {host.scale(times.wall_s)};
    if (!traced) walls_.push_back(times.wall_s);
    if (layers_) times.spanned_s = replay(spans, traced, report);
    return times;
  }

  void summarize(const SpanLog& spans, Report& report) override {
    report.end_to_end.push_back(
        {"qos_wait_mean", quality_.qos_wait_mean, "ratio"});
    auto& ledger = report.ledger;
    ledger.push_back({"e2e.mean_wait_s", quality_.mean_wait_s, "s"});
    ledger.push_back({"e2e.slo_violations",
                      static_cast<double>(quality_.slo_violations), "count"});
    if (!replayed_) return;  // untraced runs skip the open loop and replay

    ledger.push_back({"e2e.client_write_p50_ms",
                      client_write_ms_.quantile(0.50), "ms"});
    ledger.push_back({"e2e.client_write_p99_ms",
                      client_write_ms_.quantile(0.99), "ms"});
    ledger.push_back({"e2e.client_read_p99_ms",
                      client_read_ms_.quantile(0.99), "ms"});
    ledger.push_back({"e2e.client_write_samples",
                      static_cast<double>(client_write_ms_.size()), "count"});
    ledger.push_back({"e2e.client_read_samples",
                      static_cast<double>(client_read_ms_.size()), "count"});
    ledger.push_back({"gen.late_ms.p99", late_ms_.quantile(0.99), "ms"});
    ledger.push_back({"gen.late_ms.max", late_ms_.quantile(1.0), "ms"});
    add_write_latency(write_ms_, report);
    add_sched_layers(layer_reps_, report);
    if (spans.enabled()) add_span_ledger(spans, report);
    const Replay& r = replay_;
    ledger.push_back({"svc.history_jobs",
                      static_cast<double>(r.history_jobs), "count"});
    ledger.push_back({"svc.parse_us.p50", r.parse_us.quantile(0.50), "us"});
    for (int verb = 0; verb < kVerbs; ++verb) {
      const std::string prefix =
          std::string("svc.handle_us.") + kVerbNames[verb];
      ledger.push_back(
          {prefix + ".p50", r.handle_us[verb].quantile(0.50), "us"});
      ledger.push_back(
          {prefix + ".p99", r.handle_us[verb].quantile(0.99), "us"});
    }
    ledger.push_back({"svc.encode_us.p50", r.encode_us.quantile(0.50), "us"});
    ledger.push_back({"svc.decision_s", r.decision_s, "s"});
    ledger.push_back(
        {"svc.transport_ms.p50", r.transport_ms.quantile(0.50), "ms"});
    ledger.push_back({"e2e.saturated_rps",
                      static_cast<double>(stream_.size()) / fastest(walls_),
                      "1/s"});
  }

 private:
  struct Quality {
    double qos_wait_mean = 0.0;
    double mean_wait_s = 0.0;
    int slo_violations = 0;
  };
  /// The last untraced replay's per-layer samples, for the ledger.
  struct Replay {
    Samples parse_us;
    std::array<Samples, kVerbs> handle_us;
    Samples encode_us;
    Samples transport_ms;
    double decision_s = 0.0;
    long long history_jobs = 0;
  };

  void build_stream() {
    stream_.clear();
    long long id = 0;
    const auto add = [&](Verb verb, int job, json::Value params) {
      svc::Request request;
      request.id = ++id;
      request.verb = kVerbNames[verb];
      request.params = std::move(params);
      stream_.push_back({svc::encode(request), request.id, job, verb});
    };
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const jobgraph::JobRequest& job = jobs_[i];
      json::Value submit;
      submit.set("job", jobgraph::to_manifest(job));
      add(kSubmit, job.id, std::move(submit));
      json::Value advance;
      advance.set("to", job.arrival_time);
      add(kAdvance, job.id, std::move(advance));
      if (i % 2 == 1) {
        json::Value status;
        status.set("id", job.id);
        add(kStatus, job.id, std::move(status));
      }
      if (i % 40 == 39) add(kList, job.id, json::Value{});
    }
    json::Value all;
    all.set("all", true);
    add(kAdvance, -1, std::move(all));
  }

  std::unique_ptr<Connection> start(LiveDaemon& daemon, Report& report) {
    if (auto status = daemon.start(); !status) {
      report.fail(1, "daemon start: " + status.error().message);
      return nullptr;
    }
    std::unique_ptr<Connection> connection = Connection::open(socket_);
    if (!connection) report.fail(1, "cannot connect to " + socket_);
    return connection;
  }

  void check(const StreamTimes& times, std::size_t count,
             const std::string& phase, Report& report) {
    report.attempted += static_cast<long long>(count);
    report.fail(times.bad_replies + times.missing,
                phase + ": " + times.first_error);
  }

  /// Stops the daemon and checks its final state and decisions.
  void finish(LiveDaemon& daemon, const std::string& phase, Report& report) {
    report.check_status(phase + " reactor", daemon.stop());
    check_driver(daemon.core().driver(), phase, report);
  }

  void check_driver(const sched::DriverApi& driver, const std::string& phase,
                    Report& report) {
    report.check_records("TOPO-AWARE-P", RecordScan::of(driver, jobs_));
    report.fail(driver.counters().rejected_jobs, phase + ": jobs rejected");
    report.check_status(phase + " validate", driver.validate());
  }

  /// Replays the stream into an in-process core, timing parse, handle
  /// and encode per request, and returns the replay's wall seconds.
  /// Subtracting that service time from the same request's open-loop
  /// latency gives the transport's share. Untraced replays feed the
  /// metrics; traced ones record spans, outside the timed calls.
  double replay(SpanLog& spans, bool traced, Report& report) {
    svc::ServiceCore core(*topology_, model_, daemon_options());
    Replay r;
    Samples write_ms;
    report.attempted += static_cast<long long>(stream_.size());
    const int root = spans.open("svc.replay", -1);
    double submit_ms = 0.0;
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0; k < stream_.size(); ++k) {
      const StreamEntry& entry = stream_[k];
      std::string_view line = entry.line;
      line.remove_suffix(1);  // the newline
      const Clock::time_point t0 = Clock::now();
      util::Expected<svc::Request> request = svc::parse_request(line);
      const Clock::time_point t1 = Clock::now();
      if (!request) {
        report.fail(1, "replay: " + request.error().message);
        continue;
      }
      const svc::Response response = core.handle(*request);
      const Clock::time_point t2 = Clock::now();
      const std::string bytes = svc::encode(response);
      const Clock::time_point t3 = Clock::now();
      spans.add("svc.parse", t0, t1, root, entry.job);
      spans.add("svc.handle", t1, t2, root, entry.job);
      spans.add("svc.encode", t2, t3, root, entry.job);
      if (!response.ok || response.id != entry.id || bytes.empty()) {
        report.fail(1, "replay: bad reply to request " +
                           std::to_string(entry.id));
      }
      r.parse_us.add(seconds_between(t0, t1) * 1e6);
      r.handle_us[entry.verb].add(seconds_between(t1, t2) * 1e6);
      r.encode_us.add(seconds_between(t2, t3) * 1e6);
      // A job's write latency is its submit plus its advance, as in the
      // batch workloads (a median over both verbs would fall between
      // their two modes).
      const double service_ms = seconds_between(t0, t3) * 1e3;
      if (entry.verb == kSubmit) {
        submit_ms = service_ms;
      } else if (entry.verb == kAdvance && entry.job >= 0) {
        write_ms.add(submit_ms + service_ms);
      }
      if (k < latency_ms_.size()) {
        r.transport_ms.add(latency_ms_[k] - service_ms);
      }
    }
    const double wall_s = seconds_between(start, Clock::now());
    spans.close(root);

    const sched::DriverApi& driver = core.driver();
    check_driver(driver, "replay", report);
    if (traced) return wall_s;

    write_ms_.add(write_ms);
    const sched::DriverCounters counters = driver.counters();
    obs::HistogramData decision_us;
    if (const auto* single = dynamic_cast<const sched::Driver*>(&driver)) {
      decision_us = single->report().decision_latency_us;
    }
    // The driver's own time on the write path: submit and advance
    // handling (which includes reconcile_history) minus decisions.
    const double writes_s =
        (r.handle_us[kSubmit].sum() + r.handle_us[kAdvance].sum()) * 1e-6;
    layer_reps_.push_back(
        {static_cast<long long>(jobs_.size()), counters.decision_count,
         RecordScan::of(driver, jobs_).placed(), counters.events,
         counters.decision_seconds, writes_s - counters.decision_seconds,
         decision_us.percentile(0.50), decision_us.percentile(0.99)});
    r.decision_s = counters.decision_seconds;
    svc::Request list;
    list.verb = kVerbNames[kList];
    const svc::Response listed = core.handle(list);
    for (const char* state : {"finished", "cancelled", "rejected"}) {
      r.history_jobs +=
          static_cast<long long>(listed.result.at(state).as_array().size());
    }
    replay_ = std::move(r);
    replayed_ = true;
    return wall_s;
  }

  std::uint64_t seed_;
  bool layers_;  // traced run: open loop and replays for the layers
  int machines_;
  int job_count_;
  std::string socket_;
  perf::DlWorkloadModel model_{perf::CalibrationParams::paper_minsky()};
  std::unique_ptr<topo::TopologyGraph> topology_;
  std::vector<jobgraph::JobRequest> jobs_;
  std::vector<StreamEntry> stream_;
  util::Status setup_status_;

  LatencyReps write_ms_;  // in-process service time of a job's submit + advance
  std::vector<SchedLayers> layer_reps_;
  Samples client_write_ms_;
  Samples client_read_ms_;
  std::vector<double> latency_ms_;  // open loop, per request
  std::vector<double> walls_;       // untraced saturated passes
  Samples late_ms_;
  Quality quality_;
  Replay replay_;
  bool replayed_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_daemon(std::uint64_t seed, Size size,
                                      const std::string& socket_dir,
                                      bool layers) {
  return std::make_unique<Daemon>(seed, size, socket_dir, layers);
}

}  // namespace perfbench
