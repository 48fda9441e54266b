#include "config/system_config.hpp"

#include <fstream>

#include "util/strings.hpp"

namespace gts::config {

namespace {

/// INI spelling of a policy (inverse of parse_policy).
const char* policy_ini_name(sched::Policy policy) {
  switch (policy) {
    case sched::Policy::kFcfs: return "fcfs";
    case sched::Policy::kBestFit: return "bf";
    case sched::Policy::kTopoAware: return "topo-aware";
    case sched::Policy::kTopoAwareP: return "topo-aware-p";
  }
  return "topo-aware-p";
}

}  // namespace

util::Expected<sched::Policy> parse_policy(const std::string& name) {
  const std::string policy = util::to_lower(name);
  if (policy == "fcfs") return sched::Policy::kFcfs;
  if (policy == "bf" || policy == "best-fit" || policy == "bestfit") {
    return sched::Policy::kBestFit;
  }
  if (policy == "topo-aware") return sched::Policy::kTopoAware;
  if (policy == "topo-aware-p") return sched::Policy::kTopoAwareP;
  return util::Error{util::fmt("unknown policy '{}'", name)};
}

util::Expected<SystemConfig> SystemConfig::from_ini(const Ini& ini) {
  SystemConfig config;
  config.simulation = ini.get_bool("system", "simulation", true);
  config.machine_shape = ini.get_or("system", "machine_shape", "minsky");
  config.machines =
      static_cast<int>(ini.get_int("system", "machines", 1));
  if (config.machines < 1) {
    return util::Error{"sys-config: machines must be >= 1"};
  }
  if (auto shape = parse_machine_shape(config.machine_shape); !shape) {
    return shape.error();
  }
  config.workload_manifest = ini.get_or("workload", "manifest", "");
  config.noise_sigma = ini.get_double("system", "noise_sigma", 0.0);
  config.self_audit = ini.get_bool("system", "self_audit", false);

  trace::GeneratorOptions& gen = config.generator;
  gen.job_count =
      static_cast<int>(ini.get_int("workload", "jobs", gen.job_count));
  gen.arrival_rate_per_minute = ini.get_double(
      "workload", "arrival_rate_per_minute", gen.arrival_rate_per_minute);
  gen.batch_binomial_p =
      ini.get_double("workload", "batch_binomial_p", gen.batch_binomial_p);
  gen.nn_binomial_p =
      ini.get_double("workload", "nn_binomial_p", gen.nn_binomial_p);
  gen.p_one_gpu = ini.get_double("workload", "p_one_gpu", gen.p_one_gpu);
  gen.p_two_gpu = ini.get_double("workload", "p_two_gpu", gen.p_two_gpu);
  gen.iterations = ini.get_int("workload", "iterations", gen.iterations);
  gen.seed = static_cast<std::uint64_t>(
      ini.get_int("workload", "seed", static_cast<long long>(gen.seed)));
  if (gen.job_count < 1) {
    return util::Error{"sys-config: workload jobs must be >= 1"};
  }

  config.obs.trace_out = ini.get_or("obs", "trace_out", "");
  config.obs.metrics_out = ini.get_or("obs", "metrics_out", "");
  config.obs.explain_out = ini.get_or("obs", "explain_out", "");
  auto mask = obs::parse_categories(ini.get_or("obs", "categories", "all"));
  if (!mask) return mask.error().with_context("sys-config [obs]");
  config.obs.categories = *mask;

  ServiceConfig& svc = config.service;
  auto policy = parse_policy(ini.get_or("service", "policy", "topo-aware-p"));
  if (!policy) return policy.error().with_context("sys-config [service]");
  svc.policy = *policy;
  svc.max_queue = static_cast<int>(
      ini.get_int("service", "max_queue", svc.max_queue));
  if (svc.max_queue < 1) {
    return util::Error{"sys-config [service]: max_queue must be >= 1"};
  }
  svc.retry_after_ms =
      ini.get_double("service", "retry_after_ms", svc.retry_after_ms);
  svc.socket = ini.get_or("service", "socket", "");
  svc.listen = ini.get_or("service", "listen", "");
  svc.snapshot_path = ini.get_or("service", "snapshot_path", "");
  svc.snapshot_every_s =
      ini.get_double("service", "snapshot_every_s", svc.snapshot_every_s);
  svc.batch_max = static_cast<int>(
      ini.get_int("service", "batch_max", svc.batch_max));
  if (svc.batch_max < 1) {
    return util::Error{"sys-config [service]: batch_max must be >= 1"};
  }
  svc.prom_port =
      static_cast<int>(ini.get_int("service", "prom_port", svc.prom_port));
  if (svc.prom_port < -1 || svc.prom_port > 65535) {
    return util::Error{
        "sys-config [service]: prom_port must be in [-1, 65535]"};
  }
  svc.prom_host = ini.get_or("service", "prom_host", svc.prom_host);
  svc.shard_count = static_cast<int>(
      ini.get_int("service", "shard_count", svc.shard_count));
  if (svc.shard_count < 1) {
    return util::Error{"sys-config [service]: shard_count must be >= 1"};
  }
  svc.shard_threads = static_cast<int>(
      ini.get_int("service", "shard_threads", svc.shard_threads));
  if (svc.shard_threads < 0) {
    return util::Error{"sys-config [service]: shard_threads must be >= 0"};
  }
  return config;
}

Ini SystemConfig::to_ini() const {
  Ini ini;
  ini.set("system", "simulation", simulation ? "true" : "false");
  ini.set("system", "machine_shape", machine_shape);
  ini.set("system", "machines", std::to_string(machines));
  ini.set("system", "noise_sigma", util::format_double(noise_sigma, 3));
  ini.set("system", "self_audit", self_audit ? "true" : "false");
  if (!workload_manifest.empty()) {
    ini.set("workload", "manifest", workload_manifest);
  }
  ini.set("workload", "jobs", std::to_string(generator.job_count));
  ini.set("workload", "arrival_rate_per_minute",
          util::format_double(generator.arrival_rate_per_minute, 2));
  ini.set("workload", "batch_binomial_p",
          util::format_double(generator.batch_binomial_p, 3));
  ini.set("workload", "nn_binomial_p",
          util::format_double(generator.nn_binomial_p, 3));
  ini.set("workload", "p_one_gpu",
          util::format_double(generator.p_one_gpu, 3));
  ini.set("workload", "p_two_gpu",
          util::format_double(generator.p_two_gpu, 3));
  ini.set("workload", "iterations", std::to_string(generator.iterations));
  ini.set("workload", "seed",
          std::to_string(static_cast<long long>(generator.seed)));
  if (!obs.trace_out.empty()) ini.set("obs", "trace_out", obs.trace_out);
  if (!obs.metrics_out.empty()) ini.set("obs", "metrics_out", obs.metrics_out);
  if (!obs.explain_out.empty()) ini.set("obs", "explain_out", obs.explain_out);
  if ((obs.categories & obs::kAllCategories) != obs::kAllCategories) {
    ini.set("obs", "categories", obs::categories_to_string(obs.categories));
  }
  ini.set("service", "policy", policy_ini_name(service.policy));
  ini.set("service", "max_queue", std::to_string(service.max_queue));
  ini.set("service", "retry_after_ms",
          util::format_double(service.retry_after_ms, 1));
  if (!service.socket.empty()) ini.set("service", "socket", service.socket);
  if (!service.listen.empty()) ini.set("service", "listen", service.listen);
  if (!service.snapshot_path.empty()) {
    ini.set("service", "snapshot_path", service.snapshot_path);
  }
  if (service.snapshot_every_s > 0.0) {
    ini.set("service", "snapshot_every_s",
            util::format_double(service.snapshot_every_s, 2));
  }
  if (service.batch_max != 1) {
    ini.set("service", "batch_max", std::to_string(service.batch_max));
  }
  if (service.prom_port >= 0) {
    ini.set("service", "prom_port", std::to_string(service.prom_port));
    ini.set("service", "prom_host", service.prom_host);
  }
  if (service.shard_count != 1) {
    ini.set("service", "shard_count", std::to_string(service.shard_count));
    ini.set("service", "shard_threads",
            std::to_string(service.shard_threads));
  }
  return ini;
}

util::Expected<AlgoConfig> AlgoConfig::from_ini(const std::string& name,
                                                const Ini& ini) {
  AlgoConfig config;
  config.name = name;
  auto policy = parse_policy(ini.get_or("scheduler", "policy", "topo-aware-p"));
  if (!policy) return policy.error().with_context(util::fmt("algo-config {}", name));
  config.policy = *policy;
  config.weights.alpha_cc =
      ini.get_double("utility", "alpha_cc", config.weights.alpha_cc);
  config.weights.alpha_b =
      ini.get_double("utility", "alpha_b", config.weights.alpha_b);
  config.weights.alpha_d =
      ini.get_double("utility", "alpha_d", config.weights.alpha_d);
  const double total = config.weights.alpha_cc + config.weights.alpha_b +
                       config.weights.alpha_d;
  if (total <= 0.0) {
    return util::Error{
        util::fmt("algo-config {}: utility weights must sum > 0", name)};
  }
  return config;
}

Ini AlgoConfig::to_ini() const {
  Ini ini;
  ini.set("scheduler", "policy", policy_ini_name(policy));
  ini.set("utility", "alpha_cc", util::format_double(weights.alpha_cc, 4));
  ini.set("utility", "alpha_b", util::format_double(weights.alpha_b, 4));
  ini.set("utility", "alpha_d", util::format_double(weights.alpha_d, 4));
  return ini;
}

util::Expected<topo::builders::MachineShape> parse_machine_shape(
    const std::string& name) {
  const std::string lower = util::to_lower(name);
  if (lower == "minsky" || lower == "power8") {
    return topo::builders::MachineShape::kPower8Minsky;
  }
  if (lower == "pcie" || lower == "power8-pcie" || lower == "k80") {
    return topo::builders::MachineShape::kPower8Pcie;
  }
  if (lower == "dgx1" || lower == "dgx-1") {
    return topo::builders::MachineShape::kDgx1;
  }
  return util::Error{util::fmt("unknown machine shape '{}'", name)};
}

util::Expected<topo::TopologyGraph> build_topology(
    const SystemConfig& config) {
  auto shape = parse_machine_shape(config.machine_shape);
  if (!shape) return shape.error();
  return topo::builders::cluster(config.machines, *shape);
}

util::Expected<LoadedConfiguration> load_configuration(
    const std::string& sys_config_path,
    const std::vector<std::string>& algo_config_paths) {
  auto sys_ini = Ini::parse_file(sys_config_path);
  if (!sys_ini) return sys_ini.error();
  auto system = SystemConfig::from_ini(*sys_ini);
  if (!system) return system.error().with_context(sys_config_path);

  LoadedConfiguration loaded;
  loaded.system = std::move(*system);
  if (algo_config_paths.empty()) {
    return util::Error{
        "at least one algorithm config must be provided (Appendix A.3)"};
  }
  for (const std::string& path : algo_config_paths) {
    auto ini = Ini::parse_file(path);
    if (!ini) return ini.error();
    // Name = file stem without the "-config.ini" suffix.
    std::string name = path;
    if (const size_t slash = name.find_last_of('/');
        slash != std::string::npos) {
      name = name.substr(slash + 1);
    }
    if (const size_t suffix = name.rfind("-config.ini");
        suffix != std::string::npos) {
      name = name.substr(0, suffix);
    }
    auto algo = AlgoConfig::from_ini(name, *ini);
    if (!algo) return algo.error().with_context(path);
    loaded.algorithms.push_back(std::move(*algo));
  }
  return loaded;
}

util::Expected<std::vector<std::string>> write_sample_configs(
    const std::string& directory) {
  std::vector<std::string> written;
  const auto write_one = [&](const std::string& name,
                             const Ini& ini) -> util::Status {
    const std::string path = directory + "/" + name;
    std::ofstream out(path, std::ios::binary);
    if (!out) return util::Error{util::fmt("cannot write {}", path)};
    out << "# generated sample (Appendix A.3 format)\n" << ini.write();
    if (!out.good()) return util::Error{util::fmt("write to {} failed", path)};
    written.push_back(path);
    return util::Status::ok();
  };

  SystemConfig system;
  system.machines = 5;
  system.generator.job_count = 100;
  // Moderate load (see DESIGN.md): saturation forces every policy into
  // identical placements and makes the sample comparison vacuous.
  system.generator.iterations = 250;
  if (auto s = write_one("sys-config.ini", system.to_ini()); !s) {
    return s.error();
  }
  for (const auto& [name, policy] :
       std::vector<std::pair<std::string, sched::Policy>>{
           {"fcfs", sched::Policy::kFcfs},
           {"bf", sched::Policy::kBestFit},
           {"topo-aware", sched::Policy::kTopoAware},
           {"topo-aware-p", sched::Policy::kTopoAwareP}}) {
    AlgoConfig algo;
    algo.name = name;
    algo.policy = policy;
    if (auto s = write_one(name + "-config.ini", algo.to_ini()); !s) {
      return s.error();
    }
  }
  return written;
}

}  // namespace gts::config
