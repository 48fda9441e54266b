// Scheduler-service load benchmark: N concurrent client connections
// drive a live gts_schedd core (in-process Server on a per-replica
// Unix-domain socket) at a configured arrival rate and measure wire
// round-trip latency and decision throughput.
//
// Each (scenario, seed) replica boots its own ServiceCore + Server on a
// private socket, fans `--connections` submitter threads out over the
// workload (round-robin job assignment, submits retried on
// backpressure), then drains the daemon and collects the decision
// figures. With --pipeline each connection flushes its whole remaining
// wave of submits in one write and then collects the replies, so the
// daemon sees bursts of queued lines; without it the clients are strict
// request/response and throughput measures round trips, not the
// admission path. Pipelined latency is recorded per reply
// as time-since-wave-flush, so the tail shows queueing inside a wave.
// The BENCH document (schema_version 1) keeps the determinism
// contract: the admitted/finished/rejected job counts are byte-identical
// across runs, while everything the wall clock can perturb — request
// latency percentiles, whole-run and steady-state throughput (the latter
// clips the first/last 20% of the reply-time span to exclude ramp-up and
// drain), backpressure retries, the per-job lifecycle summary
// (postponements, degradations, SLO violations, mean JCT slowdown), and
// (because arrivals clamp to the pump's progress once the bounded queue
// pushes back) makespan/decisions/events — lives under the payload's
// "timing" subtree.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "jobgraph/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "perf/model.hpp"
#include "runner/sweep.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "topo/builders.hpp"
#include "trace/arrivals.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

using namespace gts;

/// Deterministic mixed workload with Poisson arrivals (Section 5.3
/// style), submitted over the wire as manifests.
std::vector<jobgraph::JobRequest> service_jobs(
    int job_count, long long iterations, double rate_per_minute,
    util::Rng& rng) {
  util::Rng arrival_rng = rng.fork(1);
  const std::vector<double> arrivals =
      trace::poisson_arrivals(job_count, rate_per_minute, arrival_rng);
  const jobgraph::NeuralNet nets[] = {jobgraph::NeuralNet::kAlexNet,
                                      jobgraph::NeuralNet::kCaffeRef,
                                      jobgraph::NeuralNet::kGoogLeNet};
  const int batches[] = {1, 4, 16};
  const int gpus[] = {1, 2, 2, 4};
  std::vector<jobgraph::JobRequest> jobs;
  jobs.reserve(static_cast<size_t>(job_count));
  for (int i = 0; i < job_count; ++i) {
    jobs.push_back(jobgraph::JobRequest::make_dl(
        i + 1, arrivals[static_cast<size_t>(i)], nets[i % 3],
        batches[(i / 3) % 3], gpus[i % 4], 0.4, iterations));
  }
  return jobs;
}

struct ReplicaFigures {
  obs::HistogramData latency_us;  // client-observed request round trips
  long long requests = 0;
  long long backpressure_retries = 0;
  /// Reply arrival times (wall seconds since the replica's submit start):
  /// the raw series behind the steady-state throughput window.
  std::vector<double> reply_s;
};

/// Raw blocking UDS connection for --pipeline waves. svc::Client is
/// strictly one-outstanding-request by design, which is exactly the
/// shape pipelining must NOT have.
class RawConnection {
 public:
  static std::optional<RawConnection> connect(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return std::nullopt;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() + 1 > sizeof(addr.sun_path)) {
      ::close(fd);
      return std::nullopt;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd);
      return std::nullopt;
    }
    return RawConnection(fd);
  }
  RawConnection(RawConnection&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;
  RawConnection& operator=(RawConnection&&) = delete;
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool send_all(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocks until the next newline-terminated reply line arrives.
  std::optional<std::string> read_line() {
    char buffer[4096];
    while (true) {
      const size_t newline = in_.find('\n');
      if (newline != std::string::npos) {
        std::string line = in_.substr(0, newline);
        in_.erase(0, newline + 1);
        return line;
      }
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) return std::nullopt;
      in_.append(buffer, static_cast<size_t>(n));
    }
  }

 private:
  explicit RawConnection(int fd) : fd_(fd) {}
  int fd_;
  std::string in_;
};

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("connections", "concurrent client connections", "4");
  cli.add_option("jobs", "jobs per replica", "60");
  cli.add_option("rate", "arrival rate (jobs per simulated minute)", "30");
  cli.add_option("machines", "cluster size (Minsky machines)", "4");
  cli.add_option("iterations", "training iterations per job", "250");
  cli.add_option("max-queue", "daemon admission bound", "16");
  cli.add_flag("pipeline",
               "clients flush submit waves instead of strict request/response");
  cli.add_option("seeds", "replica count N (seeds 1..N) or list 'a,b,c'",
                 "42,");
  cli.add_option("threads", "sweep worker threads", "1");
  cli.add_option("out", "write BENCH JSON here ('' = no file)", "");
  obs::add_cli_flags(cli);
  if (auto status = cli.parse(argc, argv); !status) {
    std::fprintf(stderr, "%s\n%s", status.error().message.c_str(),
                 cli.usage(argv[0]).c_str());
    return 1;
  }
  if (auto status = obs::configure_from_cli(cli); !status) {
    std::fprintf(stderr, "%s\n", status.error().message.c_str());
    return 1;
  }
  const auto seeds = runner::parse_seed_spec(cli.get("seeds"));
  if (!seeds) {
    std::fprintf(stderr, "%s\n", seeds.error().message.c_str());
    return 1;
  }
  const int connections = static_cast<int>(cli.get_int("connections"));
  const int job_count = static_cast<int>(cli.get_int("jobs"));
  const double rate = cli.get_double("rate");
  const int machines = static_cast<int>(cli.get_int("machines"));
  const long long iterations = cli.get_int("iterations");
  const int max_queue = static_cast<int>(cli.get_int("max-queue"));
  const bool pipeline = cli.has("pipeline");
  if (connections < 1 || job_count < 1 || machines < 1 || max_queue < 1) {
    std::fprintf(stderr, "connections/jobs/machines/max-queue must be >= 1\n");
    return 1;
  }

  runner::SweepOptions options;
  options.name = "service_load";
  options.scenarios = {util::fmt("minsky-{}m-{}conn", machines, connections)};
  options.seeds = *seeds;
  options.threads = static_cast<int>(cli.get_int("threads"));
  options.metadata["experiment"] = "service_load";
  options.metadata["connections"] = connections;
  options.metadata["jobs"] = job_count;
  options.metadata["machines"] = machines;
  options.metadata["max_queue"] = max_queue;
  options.metadata["rate_per_minute"] = rate;
  options.metadata["pipeline"] = pipeline;

  const runner::SweepResult result = runner::run_sweep(
      options, [=](const runner::ReplicaContext& context) {
        const topo::TopologyGraph topology = topo::builders::make_cluster(
            machines, 4, topo::builders::MachineShape::kPower8Minsky);
        const perf::DlWorkloadModel model(
            perf::CalibrationParams::paper_minsky());
        svc::ServiceOptions service_options;
        service_options.config.max_queue = max_queue;
        service_options.config.retry_after_ms = 1.0;
        svc::ServiceCore core(topology, model, service_options);

        const std::string socket_path =
            util::fmt("./svc_load_{}_{}.sock", static_cast<int>(::getpid()),
                      context.replica_index);
        svc::ServerOptions server_options;
        server_options.unix_socket = socket_path;
        svc::Server server(core, server_options);
        if (auto status = server.start(); !status) {
          throw std::runtime_error(status.error().message);
        }
        std::thread server_thread([&server] { (void)server.run(); });

        util::Rng rng = context.rng;
        const std::vector<jobgraph::JobRequest> jobs =
            service_jobs(job_count, iterations, rate, rng);

        // Submitters: connection c takes jobs c, c+C, c+2C, ... and
        // retries on backpressure (the daemon's retry_after_ms hint),
        // so every job is eventually admitted and the placed set stays
        // deterministic.
        const auto wall_start = std::chrono::steady_clock::now();
        std::vector<ReplicaFigures> figures(
            static_cast<size_t>(connections));
        std::atomic<bool> failed{false};
        std::vector<std::thread> submitters;
        submitters.reserve(static_cast<size_t>(connections));
        for (int c = 0; c < connections; ++c) {
          submitters.emplace_back([&, c] {
            ReplicaFigures& local = figures[static_cast<size_t>(c)];
            if (pipeline) {
              // Wave mode: flush every still-unadmitted submit in one
              // write, then collect the replies in order. Backpressured
              // jobs go into the next wave after the daemon's retry
              // hint. Latency is reply-arrival minus wave flush.
              auto connection = RawConnection::connect(socket_path);
              if (!connection) {
                failed.store(true);
                return;
              }
              std::vector<int> wave;
              for (int i = c; i < job_count; i += connections) {
                wave.push_back(i);
              }
              while (!wave.empty() && !failed.load()) {
                std::string bytes;
                for (const int i : wave) {
                  svc::Request request;
                  request.id = jobs[static_cast<size_t>(i)].id;
                  request.verb = "submit";
                  request.params.set(
                      "job",
                      jobgraph::to_manifest(jobs[static_cast<size_t>(i)]));
                  bytes += svc::encode(request);
                }
                const auto wave_start = std::chrono::steady_clock::now();
                if (!connection->send_all(bytes)) {
                  failed.store(true);
                  return;
                }
                std::vector<int> retry;
                double retry_after_ms = 0.1;
                for (const int i : wave) {
                  const auto line = connection->read_line();
                  const auto reply_at = std::chrono::steady_clock::now();
                  const double us = std::chrono::duration<double, std::micro>(
                                        reply_at - wave_start)
                                        .count();
                  ++local.requests;
                  local.latency_us.record(us);
                  local.reply_s.push_back(
                      std::chrono::duration<double>(reply_at - wall_start)
                          .count());
                  if (!line) {
                    failed.store(true);
                    return;
                  }
                  const auto response = svc::parse_response(*line + "\n");
                  if (!response) {
                    failed.store(true);
                    return;
                  }
                  if (response->ok) continue;
                  if (response->code != svc::ErrorCode::kBackpressure) {
                    failed.store(true);
                    return;
                  }
                  ++local.backpressure_retries;
                  retry.push_back(i);
                  retry_after_ms =
                      std::max(retry_after_ms, response->retry_after_ms);
                }
                wave = std::move(retry);
                if (!wave.empty()) {
                  std::this_thread::sleep_for(
                      std::chrono::duration<double, std::milli>(
                          retry_after_ms));
                }
              }
              return;
            }
            auto client = svc::Client::connect_unix(socket_path);
            if (!client) {
              failed.store(true);
              return;
            }
            for (int i = c; i < job_count; i += connections) {
              json::Value params;
              params.set("job", jobgraph::to_manifest(
                                    jobs[static_cast<size_t>(i)]));
              while (true) {
                const auto t0 = std::chrono::steady_clock::now();
                const auto response = client->call("submit", params);
                const auto reply_at = std::chrono::steady_clock::now();
                const double us = std::chrono::duration<double, std::micro>(
                                      reply_at - t0)
                                      .count();
                ++local.requests;
                local.latency_us.record(us);
                local.reply_s.push_back(
                    std::chrono::duration<double>(reply_at - wall_start)
                        .count());
                if (!response) {
                  failed.store(true);
                  return;
                }
                if (response->ok) break;
                if (response->code != svc::ErrorCode::kBackpressure) {
                  failed.store(true);
                  return;
                }
                ++local.backpressure_retries;
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        std::max(0.1, response->retry_after_ms)));
              }
            }
          });
        }
        // Pump: while submitters fight the bounded queue, keep granting
        // virtual time so backpressure can clear. Waiting (admitted but
        // unplaced) jobs count against the admission bound and only
        // leave it when running jobs finish, so the pump must advance
        // past the arrival horizon, not just up to it.
        std::atomic<bool> submitting{true};
        std::thread pump([&] {
          auto client = svc::Client::connect_unix(socket_path);
          if (!client) return;
          while (submitting.load()) {
            const auto now = client->call("metrics");
            if (!now || !now->ok) return;
            json::Value params;
            params.set("to", now->result.at("now").as_number() + 120.0);
            (void)client->call("advance", params);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        });
        for (std::thread& thread : submitters) thread.join();
        submitting.store(false);
        pump.join();
        const double wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          wall_start)
                .count();
        if (failed.load()) {
          server.stop();
          server_thread.join();
          throw std::runtime_error("service_load: a submitter failed");
        }

        // Control session: drain to completion, read the figures, stop.
        auto control = svc::Client::connect_unix(socket_path);
        if (!control) throw std::runtime_error(control.error().message);
        const auto drained = control->call("drain");
        const auto listing = control->call("list");
        const auto metrics = control->call("metrics");
        (void)control->call("shutdown");
        server_thread.join();
        if (!drained || !listing || !metrics || !drained->ok ||
            !listing->ok || !metrics->ok) {
          throw std::runtime_error("service_load: control session failed");
        }

        ReplicaFigures total;
        for (const ReplicaFigures& f : figures) {
          total.requests += f.requests;
          total.backpressure_retries += f.backpressure_retries;
          total.latency_us.merge(f.latency_us);
          total.reply_s.insert(total.reply_s.end(), f.reply_s.begin(),
                               f.reply_s.end());
        }
        std::sort(total.reply_s.begin(), total.reply_s.end());

        // Steady-state window: the whole-run throughput divides by a span
        // that includes connection ramp-up and the final drain of the
        // bounded queue, both of which under-count the sustainable rate.
        // Clip the first and last 20% of the reply-time span and measure
        // only the middle 60%.
        long long steady_requests = 0;
        double steady_wall_seconds = 0.0;
        if (total.reply_s.size() >= 2) {
          const double first = total.reply_s.front();
          const double last = total.reply_s.back();
          const double span = last - first;
          const double lo = first + 0.2 * span;
          const double hi = last - 0.2 * span;
          steady_wall_seconds = hi - lo;
          for (const double t : total.reply_s) {
            if (t >= lo && t <= hi) ++steady_requests;
          }
        }
        json::Value payload;
        payload.set("jobs", job_count);
        payload.set("pipeline", pipeline);
        payload.set("finished",
                    listing->result.at("finished").as_array().size());
        payload.set("rejected",
                    listing->result.at("rejected").as_array().size());
        json::Value timing;
        timing.set("makespan", drained->result.at("now").as_number());
        timing.set("decisions", metrics->result.at("decisions").as_int());
        timing.set("events", metrics->result.at("events").as_number());
        timing.set("requests", total.requests);
        timing.set("backpressure_retries", total.backpressure_retries);
        timing.set("wall_seconds", wall_seconds);
        timing.set("throughput_rps",
                   wall_seconds > 0.0
                       ? static_cast<double>(total.requests) / wall_seconds
                       : 0.0);
        timing.set("steady_requests", steady_requests);
        timing.set("steady_wall_seconds", steady_wall_seconds);
        timing.set("steady_throughput_rps",
                   steady_wall_seconds > 0.0
                       ? static_cast<double>(steady_requests) /
                             steady_wall_seconds
                       : 0.0);
        // Per-job lifecycle summary (PR 8): postponements and SLO figures
        // depend on where the wall-clock pump happened to be when each
        // submit landed, so they live under "timing" with the other
        // wall-perturbed numbers.
        timing.set("postponements",
                   metrics->result.at("postponements").as_int(0));
        timing.set("degradations",
                   metrics->result.at("degradations").as_int(0));
        timing.set("slo_violations",
                   metrics->result.at("slo_violations").as_int(0));
        timing.set("mean_jct_slowdown",
                   metrics->result.at("mean_jct_slowdown").as_number(-1.0));
        timing.set("mean_waiting_time",
                   metrics->result.at("mean_waiting_time").as_number(0.0));
        timing.set("p50_us", total.latency_us.percentile(0.50));
        timing.set("p95_us", total.latency_us.percentile(0.95));
        timing.set("p99_us", total.latency_us.percentile(0.99));
        timing.set("latency_us", total.latency_us.to_json());
        payload.set("timing", std::move(timing));
        return payload;
      });

  std::printf(
      "service load: %d connection(s) x %d job(s), %zu seed(s), %.2fs wall\n",
      connections, job_count, seeds->size(), result.wall_seconds);
  for (const runner::Replica& replica : result.replicas) {
    const json::Value& timing = replica.payload.at("timing");
    std::printf(
        "  seed %llu: %lld requests (%lld backpressure retries), "
        "%.0f req/s (steady %.0f req/s over %.2fs), p50 %.0fus p95 %.0fus "
        "p99 %.0fus, %lld decisions, makespan %.1fs\n",
        static_cast<unsigned long long>(replica.seed),
        timing.at("requests").as_int(),
        timing.at("backpressure_retries").as_int(),
        timing.at("throughput_rps").as_number(),
        timing.at("steady_throughput_rps").as_number(),
        timing.at("steady_wall_seconds").as_number(),
        timing.at("p50_us").as_number(), timing.at("p95_us").as_number(),
        timing.at("p99_us").as_number(), timing.at("decisions").as_int(),
        timing.at("makespan").as_number());
  }

  if (const std::string out = cli.get("out"); !out.empty()) {
    if (auto status = runner::write_bench_json(result, out); !status) {
      std::fprintf(stderr, "%s\n", status.error().message.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out.c_str());
  }
  const auto written = obs::finalize();
  if (!written) {
    std::fprintf(stderr, "%s\n", written.error().message.c_str());
    return 1;
  }
  for (const std::string& path : *written) {
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
