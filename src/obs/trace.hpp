// Low-overhead span recorder exporting Chrome trace_event JSON.
//
// Spans, instants and counters are buffered per thread (no locking on the
// hot path beyond one relaxed atomic check) and exported on demand as a
// Chrome trace_event document loadable in Perfetto / chrome://tracing.
// Events carry wall time (ts/dur, microseconds since the first event) and,
// while a simulation driver fires events on the thread, the simulated time
// as an argument ("sim_s").
//
// Event names and argument keys must be string literals (static storage):
// the recorder stores the pointers, not copies.
#pragma once

#include <cstdint>
#include <string>

#include "json/json.hpp"
#include "obs/obs.hpp"
#include "util/expected.hpp"

namespace gts::obs {

/// One buffered event. kComplete events are emitted by SpanGuard with a
/// duration; kBegin/kEnd pair up explicitly; kInstant marks a point.
struct TraceEvent {
  enum class Phase : char {
    kComplete = 'X',
    kBegin = 'B',
    kEnd = 'E',
    kInstant = 'i',
    kCounter = 'C',
  };

  static constexpr int kMaxArgs = 4;
  struct Arg {
    const char* key = nullptr;
    double value = 0.0;
  };

  const char* name = nullptr;
  Category category = kSched;
  Phase phase = Phase::kInstant;
  std::int64_t ts_us = 0;   // wall time since trace epoch
  std::int64_t dur_us = 0;  // kComplete only
  double sim_s = -1.0;      // simulated seconds; < 0 = no sim clock
  Arg args[kMaxArgs];
  int arg_count = 0;
  /// Free-form payload exported as args.text (log-line mirroring); empty
  /// for ordinary events.
  std::string text;
};

namespace detail {
/// Per-thread sim-clock pointer installed by sched::Driver while it fires
/// events; spans snapshot the pointed-to time when non-null. Behind an
/// accessor (function-local thread_local) rather than an extern thread_local:
/// GCC's cross-TU TLS wrapper for the latter trips a UBSan
/// "store to null pointer" false positive.
const double*& sim_clock() noexcept;

void emit(const TraceEvent& event);
std::int64_t now_us() noexcept;
}  // namespace detail

/// Monotonic wall-clock in microseconds since the process trace epoch —
/// the sanctioned clock read for timing instrumentation. Decision-path
/// code must take timestamps through this helper instead of touching
/// std::chrono directly (gts_lint's wall-clock rule): confining the
/// clock to the obs layer keeps scheduling decisions replayable and
/// gives every subsystem the same epoch as the trace timeline.
std::int64_t wall_now_us() noexcept;

/// Installs `clock` as the thread's simulated-time source for the scope's
/// lifetime (nested scopes restore the previous source).
class SimClockScope {
 public:
  explicit SimClockScope(const double* clock) noexcept
      : previous_(detail::sim_clock()) {
    detail::sim_clock() = clock;
  }
  ~SimClockScope() { detail::sim_clock() = previous_; }
  SimClockScope(const SimClockScope&) = delete;
  SimClockScope& operator=(const SimClockScope&) = delete;

 private:
  const double* previous_;
};

/// RAII span: records a kComplete event covering its lifetime. Costs one
/// branch when the category is disabled. Attach numeric arguments with
/// arg() (kept on the exported event, max TraceEvent::kMaxArgs).
class SpanGuard {
 public:
  SpanGuard(Category category, const char* name) noexcept {
    if (!tracing_enabled(category)) return;
    active_ = true;
    event_.category = category;
    event_.name = name;
    event_.phase = TraceEvent::Phase::kComplete;
    event_.ts_us = detail::now_us();
    event_.sim_s =
        detail::sim_clock() != nullptr ? *detail::sim_clock() : -1.0;
  }
  ~SpanGuard() {
    if (!active_) return;
    event_.dur_us = detail::now_us() - event_.ts_us;
    detail::emit(event_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Attaches a numeric argument; ignored when the span is inactive or
  /// the argument slots are exhausted.
  SpanGuard& arg(const char* key, double value) noexcept {
    if (active_ && event_.arg_count < TraceEvent::kMaxArgs) {
      event_.args[event_.arg_count++] = {key, value};
    }
    return *this;
  }
  bool active() const noexcept { return active_; }

 private:
  bool active_ = false;
  TraceEvent event_;
};

/// Explicit begin/end pair (for spans that cannot be scoped) and instant
/// events. All cost one branch when the category is disabled.
void trace_begin(Category category, const char* name) noexcept;
void trace_end(Category category, const char* name) noexcept;
void trace_instant(Category category, const char* name) noexcept;
void trace_instant(Category category, const char* name, const char* key,
                   double value) noexcept;
/// Instant carrying a free-form text payload (exported as args.text).
void trace_instant_text(Category category, const char* name,
                        std::string text);
void trace_counter(Category category, const char* name,
                   double value) noexcept;

/// Number of buffered events across all thread buffers (plus dropped
/// count diagnostics for tests).
std::size_t trace_event_count();
std::size_t trace_dropped_count();

/// Drops every buffered event (all threads).
void clear_trace();

/// Exports all buffered events as a Chrome trace_event JSON document:
/// {"traceEvents": [...], "displayTimeUnit": "ms"} with process/thread
/// metadata records. Buffers are left intact.
json::Value trace_to_json();

/// Serializes trace_to_json() to `path`.
util::Status write_trace_json(const std::string& path);

/// Structural validation of a Chrome trace_event document: traceEvents
/// array present, every event carries name/ph/ts/pid/tid, complete events
/// carry dur. (tools/validate_trace.py is the out-of-process twin.)
util::Status validate_trace_json(const json::Value& doc);

}  // namespace gts::obs

#define GTS_OBS_CONCAT2(a, b) a##b
#define GTS_OBS_CONCAT(a, b) GTS_OBS_CONCAT2(a, b)

/// RAII span over the enclosing scope: GTS_TRACE_SPAN(kSched, "sched.pass").
/// To attach arguments, bind the guard explicitly instead:
///   obs::SpanGuard span(obs::kSched, "sched.decide");
///   span.arg("job", job.id);
#define GTS_TRACE_SPAN(category, name)                             \
  ::gts::obs::SpanGuard GTS_OBS_CONCAT(gts_obs_span_, __LINE__)( \
      category, name)

#define GTS_TRACE_INSTANT(...) ::gts::obs::trace_instant(__VA_ARGS__)
#define GTS_TRACE_COUNTER(category, name, value) \
  ::gts::obs::trace_counter(category, name, value)
