// Observability core: the process-wide on/off state shared by the three
// pillars (tracing, metrics, decision explain) and their configuration
// plumbing (CLI flags, sys-config.ini [obs], finalize-to-files).
//
// Design contract (DESIGN.md §13): every instrumentation site must be
// provably zero-cost when its pillar is disabled — a compile-time category
// filter (GTS_OBS_CATEGORIES) removes excluded categories entirely, and an
// enabled site costs exactly one relaxed atomic load + branch. Recording
// never influences scheduling decisions: the seeded-trace determinism
// regression in tests/obs_test.cpp enforces this.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/expected.hpp"

namespace gts::util {
class CliParser;
}  // namespace gts::util

namespace gts::obs {

/// Trace/metric categories, a bitmask. Category names double as the
/// "cat" field of exported trace events.
enum Category : unsigned {
  kSched = 1u << 0,    // scheduler passes & decisions
  kSim = 1u << 1,      // discrete-event engine dispatch
  kDrb = 1u << 2,      // DRB mapper recursion
  kFm = 1u << 3,       // Fiduccia-Mattheyses refinement
  kRunner = 1u << 5,   // sweep replica lifecycle
  kCluster = 1u << 6,  // cluster state transitions
  kBench = 1u << 7,    // bench/example harness phases
  kLog = 1u << 8,      // GTS_LOG_* lines mirrored as instants
  kSvc = 1u << 9,      // scheduler service requests & sessions
  kAllCategories = 0xffffffffu,
};

/// Compile-time category filter: categories outside this mask cost nothing
/// at runtime (the enabled() check folds to `false`). Override with
/// -DGTS_OBS_CATEGORIES=<mask> to strip categories from a build.
#ifndef GTS_OBS_CATEGORIES
#define GTS_OBS_CATEGORIES ::gts::obs::kAllCategories
#endif
inline constexpr unsigned kCompiledCategories = GTS_OBS_CATEGORIES;

/// Short lowercase tag for one category bit ("sched", "drb", ...).
std::string_view category_name(Category category) noexcept;

/// Parses a comma-separated category list ("sched,drb,fm"); empty or
/// "all" selects every category.
util::Expected<unsigned> parse_categories(const std::string& spec);

/// Inverse of parse_categories: "all" for the full mask, else the
/// comma-separated names of the selected categories.
std::string categories_to_string(unsigned mask);

struct ObsConfig {
  bool tracing = false;
  bool metrics = false;
  bool explain = false;
  /// Runtime category mask for tracing (intersected with the compiled
  /// mask); metrics and explain are not category-filtered.
  unsigned categories = kAllCategories;
  /// Output paths consumed by finalize(); empty = do not write. A
  /// non-empty path implies enabling the corresponding pillar.
  std::string trace_out;
  std::string metrics_out;
  std::string explain_out;

  // --- live telemetry (DESIGN.md section 18) -------------------------------
  /// Sliding-window aggregates (obs/window.hpp). Independent of the
  /// cumulative metrics pillar: GTS_METRIC_WINDOW sites check only this.
  bool windows = false;
  /// Crash-safe flight recorder (obs/flight.hpp) and its ring capacity.
  bool flight = false;
  std::size_t flight_capacity = 4096;
  /// Prometheus text-format exposition written by finalize(); non-empty
  /// implies metrics.
  std::string prom_out;
  /// Flight-recorder JSONL dump written by finalize() and on GTS_CHECK
  /// failure; non-empty implies flight.
  std::string flight_out;
};

/// Installs `config` process-wide: flips the pillar switches and opens the
/// explain sink when configured. Never clears already-buffered data.
util::Status configure(const ObsConfig& config);

/// The currently installed configuration.
ObsConfig config();

/// Writes trace_out/metrics_out (when configured), closes the explain
/// sink, and returns the list of files written. Leaves the pillars
/// enabled; call reset() for a clean slate.
util::Expected<std::vector<std::string>> finalize();

/// Test hook: disables all pillars, drops buffered trace events, zeroes
/// the metrics registry, and closes the explain sink.
void reset();

namespace detail {
extern std::atomic<unsigned> trace_mask;  // 0 while tracing is disabled
extern std::atomic<bool> metrics_on;
extern std::atomic<bool> explain_on;
}  // namespace detail

/// The single-branch hot-path checks.
inline bool tracing_enabled(Category category) noexcept {
  if ((kCompiledCategories & static_cast<unsigned>(category)) == 0u) {
    return false;  // compile-time filtered
  }
  return (detail::trace_mask.load(std::memory_order_relaxed) &
          static_cast<unsigned>(category)) != 0u;
}
inline bool metrics_enabled() noexcept {
  return detail::metrics_on.load(std::memory_order_relaxed);
}
inline bool explain_enabled() noexcept {
  return detail::explain_on.load(std::memory_order_relaxed);
}

/// Declares the shared observability flags on a bench/example CLI:
/// --trace-out, --metrics-out, --explain-out, --obs-categories.
void add_cli_flags(util::CliParser& cli);

/// Applies the add_cli_flags() options: any non-empty output path enables
/// its pillar. Leaves obs untouched when no flag was given.
util::Status configure_from_cli(const util::CliParser& cli);

}  // namespace gts::obs
