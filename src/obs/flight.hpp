// Crash-safe flight recorder: a fixed-size lock-free ring of the most
// recent structured scheduler events, for postmortems of a live
// gts_schedd (DESIGN.md section 18.3).
//
// Events (admission, decision, postponement, backpressure,
// snapshot, error) are written on the decision thread — the same
// SerialCapability-confined paths PR 6 annotated — but the ring itself
// is safe for any thread: every slot field is a relaxed atomic and a
// per-slot commit stamp lets readers detect and skip torn slots, so
// concurrent record/snapshot is TSan-clean and the write path stays
// wait-free (one fetch_add + a handful of relaxed stores).
//
// Three dump paths share one format (JSONL, one event per line,
// "kind":"flight"):
//   * the `dump` service verb / FlightRecorder::dump_jsonl();
//   * SIGSEGV/SIGABRT via install_crash_handler(path) — the fd is opened
//     at install time and the handler only formats into stack buffers
//     and write(2)s, keeping it async-signal-safe;
//   * GTS_CHECK failure via the handler configure() installs when the
//     recorder has a dump path (the failure is recorded as a kError
//     event first, then the configured FailureMode behaviour replays).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/expected.hpp"

namespace gts::obs {

enum class FlightKind : int {
  kAdmission = 0,
  kDecision = 1,
  kPostponement = 2,
  kBackpressure = 4,
  kSnapshot = 5,
  kError = 6,
};
const char* to_string(FlightKind kind) noexcept;

/// Value-type copy of one committed ring slot.
struct FlightEvent {
  std::uint64_t seq = 0;
  std::int64_t wall_us = 0;  // obs::wall_now_us() at record time
  double sim_s = -1.0;       // simulated seconds; < 0 = none supplied
  FlightKind kind = FlightKind::kError;
  int job = -1;     // job id; -1 = not job-scoped
  double a = 0.0;   // kind-specific payload (latency, depth, size, ...)
  double b = 0.0;
  char detail[48] = {0};  // NUL-terminated, sanitized at record time
};

namespace detail {
extern std::atomic<bool> flight_on;
}  // namespace detail

inline bool flight_enabled() noexcept {
  return detail::flight_on.load(std::memory_order_relaxed);
}

class FlightRecorder {
 public:
  static FlightRecorder& instance();

  /// Allocates (or reuses) the ring and enables recording. Capacity is
  /// rounded up to at least 16 events; re-enabling with a different
  /// capacity reallocates and drops buffered events.
  void enable(std::size_t capacity);
  /// Stops recording; buffered events stay dumpable.
  void disable() noexcept;
  /// disable() + clear the ring and sequence counter (obs::reset()).
  void clear() noexcept;

  std::size_t capacity() const noexcept;
  /// Events recorded since the last clear (may exceed capacity; the ring
  /// keeps the most recent `capacity()`).
  std::uint64_t recorded() const noexcept;

  /// Appends one event. Wait-free, lock-free, callable from any thread;
  /// a no-op while disabled. `detail` is truncated to fit the slot and
  /// sanitized to JSON-safe ASCII.
  void record(FlightKind kind, int job, double a, double b,
              const char* detail, double sim_s = -1.0) noexcept;

  /// Copies the committed events, oldest first. Slots being overwritten
  /// concurrently are skipped (their commit stamp mismatches).
  std::vector<FlightEvent> snapshot() const;

  /// JSONL, one `{"kind":"flight","seq":...}` object per line.
  std::string dump_jsonl() const;
  util::Status dump_to_file(const std::string& path) const;

  /// Async-signal-safe dump: stack-buffer formatting + write(2) only.
  void dump_to_fd(int fd) const noexcept;

  /// Pre-opens `path` (O_CREAT|O_TRUNC) and installs SIGSEGV/SIGABRT
  /// handlers that dump the ring to the kept fd and re-raise with the
  /// default disposition. Call once per process, after enable().
  util::Status install_crash_handler(const std::string& path);

 private:
  struct Slot {
    /// seq + 1 once the slot's fields are fully written; 0 while a
    /// writer owns it. Readers re-check after copying the fields.
    std::atomic<std::uint64_t> commit{0};
    std::atomic<std::int64_t> wall_us{0};
    std::atomic<double> sim_s{-1.0};
    std::atomic<int> kind{0};
    std::atomic<int> job{-1};
    std::atomic<double> a{0.0};
    std::atomic<double> b{0.0};
    /// `detail` packed little-endian into words so crash-time reads stay
    /// atomic (no torn strings in a SIGSEGV dump).
    std::atomic<std::uint64_t> detail[6] = {};
  };

  FlightRecorder() = default;
  bool read_slot(std::uint64_t seq, FlightEvent& out) const noexcept;

  std::atomic<Slot*> ring_{nullptr};
  std::atomic<std::size_t> capacity_{0};
  std::atomic<std::uint64_t> next_{0};
  /// Rings replaced by enable(), never freed (see enable()). Touched only
  /// by enable(), a configuration-time call.
  std::vector<Slot*> retired_rings_;
};

}  // namespace gts::obs

/// Hot-path macros: one relaxed load + branch while the recorder is
/// disabled. GTS_FLIGHT_AT additionally stamps the simulated clock.
#define GTS_FLIGHT(kind, job, a, b, detail_text)                          \
  do {                                                                    \
    if (::gts::obs::flight_enabled()) {                                   \
      ::gts::obs::FlightRecorder::instance().record(kind, job, a, b,      \
                                                    detail_text);         \
    }                                                                     \
  } while (0)

#define GTS_FLIGHT_AT(kind, job, a, b, detail_text, sim_seconds)          \
  do {                                                                    \
    if (::gts::obs::flight_enabled()) {                                   \
      ::gts::obs::FlightRecorder::instance().record(kind, job, a, b,      \
                                                    detail_text,          \
                                                    sim_seconds);         \
    }                                                                     \
  } while (0)
