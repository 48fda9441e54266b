// The paper's configuration workflow (Appendix A.3):
//
//   * `etc/configs/sys-config.ini` selects simulation vs prototype mode,
//     the machine shape / cluster size, and the workload source (a JSON
//     manifest or the Section 5.3 generator with its arrival rate and
//     distribution parameters);
//   * one `etc/configs/<algo>-config.ini` per scheduling algorithm ("if
//     many are provided, the system will execute multiple runs configured
//     with different schedule algorithms"), carrying the policy and its
//     utility weights;
//   * "to execute the system is only required to run the main file" — the
//     `gts_system` example binary plays that role.
#pragma once

#include <string>
#include <vector>

#include "config/ini.hpp"
#include "obs/obs.hpp"
#include "sched/scheduler.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"
#include "util/expected.hpp"

namespace gts::config {

/// [service] section of sys-config.ini: the long-running scheduler
/// daemon (src/svc/, DESIGN.md section 14). Every field has a CLI
/// override on gts_schedd.
struct ServiceConfig {
  /// Placement policy the admission queue feeds.
  sched::Policy policy = sched::Policy::kTopoAwareP;
  /// Admission-queue bound; submits beyond it get a backpressure error
  /// with a retry_after_ms hint.
  int max_queue = 256;
  double retry_after_ms = 50.0;
  /// Unix-domain socket path the daemon listens on ("" = TCP only).
  std::string socket;
  /// TCP bind "host:port" ("" = Unix socket only).
  std::string listen;
  /// Periodic crash-recovery snapshot target ("" = disabled).
  std::string snapshot_path;
  double snapshot_every_s = 0.0;
  /// Requests dispatched per reactor round (Server batching): complete
  /// lines are framed first, then parsed and dispatched in arrival order
  /// as one batch. 1 = the legacy one-request-at-a-time path (the oracle).
  int batch_max = 1;
  /// Prometheus scrape listener port (HTTP GET /metrics, DESIGN.md
  /// section 18.2); 0 = ephemeral, -1 = disabled.
  int prom_port = -1;
  std::string prom_host = "127.0.0.1";
  /// Cells the cluster is partitioned into (shard::ShardedDriver,
  /// DESIGN.md section 19); 1 = the classic single-driver daemon.
  int shard_count = 1;
  /// Worker threads advancing cells concurrently; <= 1 advances serially.
  /// Any value produces byte-identical decisions.
  int shard_threads = 1;
};

/// Parsed sys-config.ini.
struct SystemConfig {
  bool simulation = true;
  /// "minsky" | "pcie" | "dgx1".
  std::string machine_shape = "minsky";
  int machines = 1;
  /// Path to a JSON workload manifest; empty means "use the generator".
  std::string workload_manifest;
  trace::GeneratorOptions generator;
  /// Lognormal execution-noise sigma (0 disables).
  double noise_sigma = 0.0;
  /// Run the check-subsystem self-audit after every simulated event
  /// (sched::DriverOptions::self_audit).
  bool self_audit = false;
  /// [obs] observability sinks (DESIGN.md section 13): trace_out,
  /// metrics_out, explain_out, categories. Empty paths leave every pillar
  /// off; the caller applies this with obs::configure().
  obs::ObsConfig obs;
  /// [service] scheduler-daemon settings (DESIGN.md section 14).
  ServiceConfig service;

  static util::Expected<SystemConfig> from_ini(const Ini& ini);
  Ini to_ini() const;
};

/// Parsed <algo>-config.ini.
struct AlgoConfig {
  std::string name;  // file stem, e.g. "topo-aware-p"
  sched::Policy policy = sched::Policy::kTopoAwareP;
  sched::UtilityWeights weights{};

  static util::Expected<AlgoConfig> from_ini(const std::string& name,
                                             const Ini& ini);
  Ini to_ini() const;
};

/// Resolves the machine shape string.
util::Expected<topo::builders::MachineShape> parse_machine_shape(
    const std::string& name);

/// Resolves a scheduler policy name ("fcfs", "bf"/"best-fit",
/// "topo-aware", "topo-aware-p"); shared by the algo configs, the
/// [service] section, and gts_schedd --policy.
util::Expected<sched::Policy> parse_policy(const std::string& name);

/// Builds the topology a SystemConfig describes.
util::Expected<topo::TopologyGraph> build_topology(const SystemConfig& config);

/// Loads sys-config.ini plus every *-config.ini algorithm file given.
struct LoadedConfiguration {
  SystemConfig system;
  std::vector<AlgoConfig> algorithms;
};
util::Expected<LoadedConfiguration> load_configuration(
    const std::string& sys_config_path,
    const std::vector<std::string>& algo_config_paths);

/// Writes the sample configuration files the paper ships ("samples of all
/// configuration files and workload manifest are provided in the source
/// code") into `directory`. Returns the paths written.
util::Expected<std::vector<std::string>> write_sample_configs(
    const std::string& directory);

}  // namespace gts::config
