#include "obs/obs.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "check/check.hpp"
#include "obs/explain.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "util/annotations.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/sync.hpp"

namespace gts::obs {

namespace detail {
std::atomic<unsigned> trace_mask{0};
std::atomic<bool> metrics_on{false};
std::atomic<bool> explain_on{false};
}  // namespace detail

namespace {

util::Mutex g_config_mutex;
ObsConfig g_config GTS_GUARDED_BY(g_config_mutex);
bool g_log_sink_installed = false;
bool g_check_hook_installed = false;

/// Check-failure hook installed while the flight recorder has a dump
/// path: record the failure as a kError event, dump the ring, then
/// replay the configured FailureMode behaviour (a custom handler
/// replaces it entirely, so the default dispatch is reproduced here).
void flight_check_failure_handler(const check::FailureInfo& info) {
  FlightRecorder::instance().record(FlightKind::kError, -1,
                                    static_cast<double>(info.line), 0.0,
                                    info.condition);
  const std::string path = config().flight_out;
  if (!path.empty()) {
    (void)FlightRecorder::instance().dump_to_file(path);
  }
  std::fprintf(stderr, "[CHECK] %s\n", info.to_string().c_str());
  switch (check::failure_mode()) {
    case check::FailureMode::kThrow:
      throw check::CheckFailedError(info);
    case check::FailureMode::kLogAndCount:
      return;
    case check::FailureMode::kAbort:
      break;
  }
  std::abort();
}

void remove_check_hook() {
  if (!g_check_hook_installed) return;
  check::set_failure_handler(nullptr);
  g_check_hook_installed = false;
}

/// Mirrors every emitted log line into the trace timeline (kLog instants)
/// while keeping the default stderr output.
void install_log_mirror_sink() {
  util::Logger::instance().set_sink(
      [](util::LogLevel level, std::string_view component,
         std::string_view message) {
        util::Logger::write_stderr(level, component, message);
        std::string text;
        text.reserve(component.size() + message.size() + 16);
        text.append("[").append(util::to_string(level)).append("] ");
        text.append(component).append(": ").append(message);
        trace_instant_text(kLog, "log.line", std::move(text));
      });
  g_log_sink_installed = true;
}

void remove_log_mirror_sink() {
  if (!g_log_sink_installed) return;
  util::Logger::instance().set_sink({});
  g_log_sink_installed = false;
}

constexpr struct {
  Category category;
  std::string_view name;
} kCategoryNames[] = {
    {kSched, "sched"}, {kSim, "sim"},       {kDrb, "drb"},
    {kFm, "fm"},       {kRunner, "runner"}, {kCluster, "cluster"},
    {kBench, "bench"}, {kLog, "log"},       {kSvc, "svc"},
};

}  // namespace

std::string_view category_name(Category category) noexcept {
  for (const auto& entry : kCategoryNames) {
    if (entry.category == category) return entry.name;
  }
  return "other";
}

std::string categories_to_string(unsigned mask) {
  if ((mask & kAllCategories) == kAllCategories) return "all";
  std::string spec;
  for (const auto& entry : kCategoryNames) {
    if ((mask & static_cast<unsigned>(entry.category)) == 0u) continue;
    if (!spec.empty()) spec += ',';
    spec += entry.name;
  }
  return spec;
}

util::Expected<unsigned> parse_categories(const std::string& spec) {
  const std::string lower = util::to_lower(spec);
  if (lower.empty() || lower == "all") return kAllCategories;
  unsigned mask = 0;
  for (const std::string& token : util::split(lower, ',')) {
    if (token.empty()) continue;
    bool found = false;
    for (const auto& entry : kCategoryNames) {
      if (entry.name == token) {
        mask |= static_cast<unsigned>(entry.category);
        found = true;
        break;
      }
    }
    if (!found) {
      return util::Error{"unknown obs category '" + token + "'"};
    }
  }
  if (mask == 0) return util::Error{"obs categories: empty selection"};
  return mask;
}

util::Status configure(const ObsConfig& config) {
  ObsConfig effective = config;
  // A non-empty output path implies its pillar.
  if (!effective.trace_out.empty()) effective.tracing = true;
  if (!effective.metrics_out.empty()) effective.metrics = true;
  if (!effective.explain_out.empty()) effective.explain = true;
  if (!effective.prom_out.empty()) effective.metrics = true;
  if (!effective.flight_out.empty()) effective.flight = true;

  if (effective.explain && !effective.explain_out.empty()) {
    if (auto status = ExplainLog::instance().open(effective.explain_out);
        !status) {
      return status;
    }
  }
  {
    util::MutexLock lock(g_config_mutex);
    g_config = effective;
  }
  detail::trace_mask.store(
      effective.tracing ? (effective.categories & kCompiledCategories) : 0u,
      std::memory_order_relaxed);
  detail::metrics_on.store(effective.metrics, std::memory_order_relaxed);
  detail::explain_on.store(
      effective.explain && ExplainLog::instance().is_open(),
      std::memory_order_relaxed);
  detail::windows_on.store(effective.windows, std::memory_order_relaxed);
  if (effective.flight) {
    FlightRecorder::instance().enable(effective.flight_capacity);
  } else {
    FlightRecorder::instance().disable();
  }
  if (effective.flight && !effective.flight_out.empty()) {
    check::set_failure_handler(flight_check_failure_handler);
    g_check_hook_installed = true;
  } else {
    remove_check_hook();
  }
  if (tracing_enabled(kLog)) {
    install_log_mirror_sink();
  } else {
    remove_log_mirror_sink();
  }
  return util::Status::ok();
}

ObsConfig config() {
  util::MutexLock lock(g_config_mutex);
  return g_config;
}

util::Expected<std::vector<std::string>> finalize() {
  const ObsConfig current = config();
  std::vector<std::string> written;
  if (!current.trace_out.empty()) {
    if (auto status = write_trace_json(current.trace_out); !status) {
      return status.error();
    }
    written.push_back(current.trace_out);
  }
  if (!current.metrics_out.empty()) {
    if (auto status = write_metrics_json(current.metrics_out); !status) {
      return status.error();
    }
    written.push_back(current.metrics_out);
  }
  if (ExplainLog::instance().is_open()) {
    ExplainLog::instance().close();
    if (!current.explain_out.empty()) written.push_back(current.explain_out);
  }
  if (!current.prom_out.empty()) {
    std::ofstream out(current.prom_out);
    if (!out) {
      return util::Error{"cannot open " + current.prom_out};
    }
    out << prometheus_text();
    written.push_back(current.prom_out);
  }
  if (!current.flight_out.empty()) {
    if (auto status = FlightRecorder::instance().dump_to_file(
            current.flight_out);
        !status) {
      return status.error();
    }
    written.push_back(current.flight_out);
  }
  return written;
}

void reset() {
  detail::trace_mask.store(0u, std::memory_order_relaxed);
  detail::metrics_on.store(false, std::memory_order_relaxed);
  detail::explain_on.store(false, std::memory_order_relaxed);
  detail::windows_on.store(false, std::memory_order_relaxed);
  {
    util::MutexLock lock(g_config_mutex);
    g_config = ObsConfig{};
  }
  remove_log_mirror_sink();
  remove_check_hook();
  ExplainLog::instance().close();
  clear_trace();
  Registry::instance().reset();
  WindowRegistry::instance().reset();
  FlightRecorder::instance().clear();
  set_window_clock_us(-1);
}

void add_cli_flags(util::CliParser& cli) {
  cli.add_option("trace-out",
                 "write a Chrome trace_event JSON here (enables tracing)",
                 "");
  cli.add_option("metrics-out",
                 "write the metrics-registry snapshot here (enables metrics)",
                 "");
  cli.add_option("explain-out",
                 "write per-decision explain JSONL here (enables explain)",
                 "");
  cli.add_option("obs-categories",
                 "trace categories, e.g. 'sched,drb' (default: all)", "");
  cli.add_option("prom-out",
                 "write a Prometheus text-format snapshot here "
                 "(enables metrics)",
                 "");
  cli.add_option("flight-out",
                 "dump the flight-recorder ring as JSONL here "
                 "(enables the flight recorder)",
                 "");
  cli.add_flag("obs-windows",
               "enable sliding-window aggregates (10s/1m/5m rates and "
               "quantiles)");
}

util::Status configure_from_cli(const util::CliParser& cli) {
  ObsConfig obs_config;
  obs_config.trace_out = cli.get("trace-out");
  obs_config.metrics_out = cli.get("metrics-out");
  obs_config.explain_out = cli.get("explain-out");
  obs_config.prom_out = cli.get("prom-out");
  obs_config.flight_out = cli.get("flight-out");
  obs_config.windows = cli.has("obs-windows");
  const auto mask = parse_categories(cli.get("obs-categories"));
  if (!mask) return mask.error();
  obs_config.categories = *mask;
  if (obs_config.trace_out.empty() && obs_config.metrics_out.empty() &&
      obs_config.explain_out.empty() && obs_config.prom_out.empty() &&
      obs_config.flight_out.empty() && !obs_config.windows) {
    return util::Status::ok();  // observability not requested
  }
  return configure(obs_config);
}

}  // namespace gts::obs
