// gts_schedd: the long-running scheduler-service daemon (DESIGN.md
// section 14). Listens on a Unix-domain socket and/or a TCP endpoint and
// serves the JSONL wire protocol: job submission (inline manifests or
// Section 5.1 manifest files), status/list/cancel, topology and metrics
// introspection, virtual-time advancement, crash-recovery snapshots, and
// graceful drain/shutdown.
//
//   gts_schedd --socket /tmp/gts.sock --machines 4 --policy topo-aware-p
//   gts_schedd --config etc/sys-config.ini --restore snap.json
//
// Configuration precedence: sys-config.ini [service] section (when
// --config is given), then the command-line flags on top.
#include <csignal>
#include <cstdio>

#include "config/system_config.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "perf/model.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

gts::svc::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();  // async-signal-safe
}

/// Splits "host:port"; exits with a usage error on malformed input.
bool parse_listen(const std::string& spec, std::string& host, int& port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    return false;
  }
  host = spec.substr(0, colon);
  try {
    port = std::stoi(spec.substr(colon + 1));
  } catch (...) {
    return false;
  }
  return port >= 0 && port <= 65535;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gts;
  util::CliParser cli;
  cli.add_option("config", "sys-config.ini ([service] section + cluster)");
  cli.add_option("socket", "unix-domain socket path to listen on");
  cli.add_option("listen", "TCP endpoint host:port (port 0 = ephemeral)");
  cli.add_option("policy", "fcfs | bf | topo-aware | topo-aware-p");
  cli.add_option("max-queue", "admission-queue bound");
  cli.add_option("retry-after-ms", "backpressure retry hint (ms)");
  cli.add_option("snapshot", "crash-recovery snapshot path");
  cli.add_option("snapshot-every-s",
                 "periodic snapshot interval (wall seconds, 0 = off)");
  cli.add_option("restore", "restore state from this snapshot, then serve");
  cli.add_option("machines", "cluster size (without --config)", "2");
  cli.add_option("shape", "machine shape: minsky | pcie | dgx1", "minsky");
  cli.add_option("batch-max",
                 "requests dispatched per reactor round (1 = unbatched)");
  cli.add_flag("self-audit", "validate state after every simulated event");
  cli.add_option("shards",
                 "partition the cluster into this many cells with an "
                 "inter-shard router (1 = classic single driver)");
  cli.add_option("shard-threads",
                 "worker threads advancing cells concurrently (results stay "
                 "byte-identical; <= 1 = serial)");
  cli.add_option("prom-port",
                 "Prometheus scrape port (HTTP GET /metrics; 0 = ephemeral; "
                 "enables metrics + windows)");
  cli.add_option("prom-host", "Prometheus scrape bind address",
                 "127.0.0.1");
  cli.add_option("flight-dump",
                 "flight-recorder crash-dump path: enables the event ring "
                 "and dumps it there on SIGSEGV/SIGABRT, GTS_CHECK failure, "
                 "and clean exit");
  obs::add_cli_flags(cli);
  if (auto status = cli.parse(argc, argv); !status) {
    std::fprintf(stderr, "%s\n%s", status.error().message.c_str(),
                 cli.usage(argv[0]).c_str());
    return 1;
  }

  // Base system configuration: the INI file when given, defaults + the
  // --machines/--shape flags otherwise.
  config::SystemConfig system;
  system.machines = static_cast<int>(cli.get_int("machines"));
  system.machine_shape = cli.get("shape");
  if (cli.has("config")) {
    auto ini = config::Ini::parse_file(cli.get("config"));
    if (!ini) {
      std::fprintf(stderr, "%s\n", ini.error().message.c_str());
      return 1;
    }
    auto loaded = config::SystemConfig::from_ini(*ini);
    if (!loaded) {
      std::fprintf(stderr, "%s\n", loaded.error().message.c_str());
      return 1;
    }
    system = *loaded;
  }
  if (auto status = obs::configure(system.obs); !status) {
    std::fprintf(stderr, "%s\n", status.error().message.c_str());
    return 1;
  }
  if (auto status = obs::configure_from_cli(cli); !status) {
    std::fprintf(stderr, "%s\n", status.error().message.c_str());
    return 1;
  }
  // Live-telemetry flags layer on top of whatever obs state is installed:
  // a scrape port implies the cumulative metrics + windowed aggregates it
  // serves; a crash-dump path implies the flight recorder.
  if (cli.has("prom-port") || cli.has("flight-dump")) {
    obs::ObsConfig live = obs::config();
    if (cli.has("prom-port")) {
      live.metrics = true;
      live.windows = true;
    }
    if (cli.has("flight-dump")) {
      live.flight = true;
      live.flight_out = cli.get("flight-dump");
    }
    if (auto status = obs::configure(live); !status) {
      std::fprintf(stderr, "%s\n", status.error().message.c_str());
      return 1;
    }
  }

  // Flag overrides on the [service] section.
  config::ServiceConfig& service = system.service;
  if (cli.has("policy")) {
    auto policy = config::parse_policy(cli.get("policy"));
    if (!policy) {
      std::fprintf(stderr, "%s\n", policy.error().message.c_str());
      return 1;
    }
    service.policy = *policy;
  }
  if (cli.has("max-queue")) {
    service.max_queue = static_cast<int>(cli.get_int("max-queue"));
    if (service.max_queue < 1) {
      std::fprintf(stderr, "--max-queue must be >= 1\n");
      return 1;
    }
  }
  if (cli.has("retry-after-ms")) {
    service.retry_after_ms = cli.get_double("retry-after-ms");
  }
  if (cli.has("socket")) service.socket = cli.get("socket");
  if (cli.has("listen")) service.listen = cli.get("listen");
  if (cli.has("snapshot")) service.snapshot_path = cli.get("snapshot");
  if (cli.has("snapshot-every-s")) {
    service.snapshot_every_s = cli.get_double("snapshot-every-s");
  }
  if (cli.has("batch-max")) {
    service.batch_max = static_cast<int>(cli.get_int("batch-max"));
    if (service.batch_max < 1) {
      std::fprintf(stderr, "--batch-max must be >= 1\n");
      return 1;
    }
  }
  if (cli.has("prom-port")) {
    service.prom_port = static_cast<int>(cli.get_int("prom-port"));
    if (service.prom_port < 0 || service.prom_port > 65535) {
      std::fprintf(stderr, "--prom-port must be in [0, 65535]\n");
      return 1;
    }
  }
  if (cli.has("prom-host")) service.prom_host = cli.get("prom-host");
  if (cli.has("shards")) {
    service.shard_count = static_cast<int>(cli.get_int("shards"));
    if (service.shard_count < 1) {
      std::fprintf(stderr, "--shards must be >= 1\n");
      return 1;
    }
  }
  if (cli.has("shard-threads")) {
    service.shard_threads = static_cast<int>(cli.get_int("shard-threads"));
    if (service.shard_threads < 0) {
      std::fprintf(stderr, "--shard-threads must be >= 0\n");
      return 1;
    }
  }

  const auto topology = config::build_topology(system);
  if (!topology) {
    std::fprintf(stderr, "%s\n", topology.error().message.c_str());
    return 1;
  }
  const bool pcie = util::to_lower(system.machine_shape) == "pcie";
  const perf::DlWorkloadModel model(
      pcie ? perf::CalibrationParams::paper_k80()
           : perf::CalibrationParams::paper_minsky());

  svc::ServiceOptions options;
  options.config = service;
  options.self_audit = system.self_audit || cli.has("self-audit");
  svc::ServiceCore core(*topology, model, options);
  if (cli.has("restore")) {
    if (auto status = core.load_snapshot(cli.get("restore")); !status) {
      std::fprintf(stderr, "restore failed: %s\n",
                   status.error().message.c_str());
      return 1;
    }
    std::fprintf(stderr, "restored state from %s (sim now=%.3f)\n",
                 cli.get("restore").c_str(), core.driver().now());
  }

  svc::ServerOptions server_options;
  server_options.unix_socket = service.socket;
  if (!service.listen.empty()) {
    if (!parse_listen(service.listen, server_options.tcp_host,
                      server_options.tcp_port)) {
      std::fprintf(stderr, "--listen expects host:port, got '%s'\n",
                   service.listen.c_str());
      return 1;
    }
  }
  server_options.snapshot_path = service.snapshot_path;
  server_options.snapshot_every_s = service.snapshot_every_s;
  server_options.batch_max = service.batch_max;
  server_options.prom_port = service.prom_port;
  server_options.prom_host = service.prom_host;

  svc::Server server(core, server_options);
  if (auto status = server.start(); !status) {
    std::fprintf(stderr, "%s\n", status.error().message.c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // Crash postmortems: pre-open the dump target and install the
  // async-signal-safe SIGSEGV/SIGABRT handlers.
  if (obs::flight_enabled() && !obs::config().flight_out.empty()) {
    if (auto status = obs::FlightRecorder::instance().install_crash_handler(
            obs::config().flight_out);
        !status) {
      std::fprintf(stderr, "flight recorder: %s\n",
                   status.error().message.c_str());
      return 1;
    }
  }

  // Readiness line (scripts wait for it before connecting).
  std::printf(
      "gts_schedd ready unix=%s tcp_port=%d prom_port=%d policy=%s "
      "machines=%d shards=%d\n",
      service.socket.empty() ? "-" : service.socket.c_str(), server.port(),
      server.prom_port(), to_string(options.config.policy).data(),
      system.machines, core.driver().shard_count());
  std::fflush(stdout);

  const auto run_status = server.run();
  g_server = nullptr;
  if (!run_status) {
    std::fprintf(stderr, "%s\n", run_status.error().message.c_str());
    return 1;
  }
  // Graceful exit: flush the observability sinks.
  const auto written = obs::finalize();
  if (!written) {
    std::fprintf(stderr, "obs finalize: %s\n",
                 written.error().message.c_str());
    return 1;
  }
  for (const std::string& path : *written) {
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  return 0;
}
