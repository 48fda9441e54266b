#include "obs/flight.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "obs/trace.hpp"
#include "util/expected.hpp"

namespace gts::obs {

namespace detail {
std::atomic<bool> flight_on{false};
}  // namespace detail

namespace {

constexpr std::size_t kDetailWords = 6;
constexpr std::size_t kDetailBytes = kDetailWords * sizeof(std::uint64_t);

/// Crash-handler state: plain ints/pointers set once at install time so
/// the signal handler touches nothing that allocates or locks.
std::atomic<int> g_crash_fd{-1};

// --- async-signal-safe formatting -----------------------------------------
// The crash path may not call snprintf/malloc; these append into a caller
// stack buffer and return the new length (clamped to the buffer).

std::size_t append_text(char* buffer, std::size_t len, std::size_t cap,
                        const char* text) noexcept {
  while (*text != '\0' && len + 1 < cap) buffer[len++] = *text++;
  return len;
}

std::size_t append_ll(char* buffer, std::size_t len, std::size_t cap,
                      long long value) noexcept {
  char digits[24];
  std::size_t n = 0;
  unsigned long long magnitude;
  if (value < 0) {
    if (len + 1 < cap) buffer[len++] = '-';
    magnitude = static_cast<unsigned long long>(-(value + 1)) + 1ull;
  } else {
    magnitude = static_cast<unsigned long long>(value);
  }
  do {
    digits[n++] = static_cast<char>('0' + magnitude % 10ull);
    magnitude /= 10ull;
  } while (magnitude > 0 && n < sizeof(digits));
  while (n > 0 && len + 1 < cap) buffer[len++] = digits[--n];
  return len;
}

/// Fixed-point with 6 fractional digits — enough for latencies in us and
/// simulated seconds, and computable with integer arithmetic only.
std::size_t append_fixed(char* buffer, std::size_t len, std::size_t cap,
                         double value) noexcept {
  if (value != value) return append_text(buffer, len, cap, "0");  // NaN
  if (value < 0) {
    if (len + 1 < cap) buffer[len++] = '-';
    value = -value;
  }
  if (value > 9.2e12) value = 9.2e12;  // keep the integer math in range
  const long long scaled = static_cast<long long>(value * 1e6 + 0.5);
  len = append_ll(buffer, len, cap, scaled / 1000000);
  if (len + 1 < cap) buffer[len++] = '.';
  long long frac = scaled % 1000000;
  for (long long divisor = 100000; divisor >= 1; divisor /= 10) {
    if (len + 1 < cap) {
      buffer[len++] = static_cast<char>('0' + (frac / divisor) % 10);
    }
  }
  return len;
}

/// Formats one event as a JSONL line into `buffer`; returns the length.
/// Async-signal-safe (used by both the crash handler and dump_jsonl, so
/// every dump path emits byte-identical records).
std::size_t format_event(const FlightEvent& event, char* buffer,
                         std::size_t cap) noexcept {
  std::size_t len = 0;
  len = append_text(buffer, len, cap, "{\"kind\":\"flight\",\"seq\":");
  len = append_ll(buffer, len, cap, static_cast<long long>(event.seq));
  len = append_text(buffer, len, cap, ",\"event\":\"");
  len = append_text(buffer, len, cap, to_string(event.kind));
  len = append_text(buffer, len, cap, "\",\"wall_us\":");
  len = append_ll(buffer, len, cap, event.wall_us);
  len = append_text(buffer, len, cap, ",\"sim_s\":");
  len = append_fixed(buffer, len, cap, event.sim_s);
  len = append_text(buffer, len, cap, ",\"job\":");
  len = append_ll(buffer, len, cap, event.job);
  len = append_text(buffer, len, cap, ",\"a\":");
  len = append_fixed(buffer, len, cap, event.a);
  len = append_text(buffer, len, cap, ",\"b\":");
  len = append_fixed(buffer, len, cap, event.b);
  len = append_text(buffer, len, cap, ",\"detail\":\"");
  len = append_text(buffer, len, cap, event.detail);
  len = append_text(buffer, len, cap, "\"}\n");
  return len;
}

void write_all(int fd, const char* data, std::size_t size) noexcept {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    written += static_cast<std::size_t>(n);
  }
}

extern "C" void flight_crash_handler(int signo) {
  const int fd = g_crash_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    FlightRecorder::instance().dump_to_fd(fd);
    ::fsync(fd);
  }
  // Re-raise with the default disposition (handlers were installed with
  // SA_RESETHAND) so the process still dies with the original signal.
  ::raise(signo);
}

}  // namespace

const char* to_string(FlightKind kind) noexcept {
  switch (kind) {
    case FlightKind::kAdmission: return "admission";
    case FlightKind::kDecision: return "decision";
    case FlightKind::kPostponement: return "postponement";
    case FlightKind::kBackpressure: return "backpressure";
    case FlightKind::kSnapshot: return "snapshot";
    case FlightKind::kError: return "error";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::enable(std::size_t capacity) {
  capacity = std::max<std::size_t>(capacity, 16);
  if (ring_.load(std::memory_order_acquire) == nullptr ||
      capacity_.load(std::memory_order_relaxed) != capacity) {
    // A replaced ring is retired rather than freed: a concurrent late
    // recorder (or the crash handler) may still hold the old pointer, and
    // enable() is a rare configuration-time call. The retired list keeps
    // it owned, so leak checkers do not report it.
    Slot* const old = ring_.exchange(new Slot[capacity],
                                     std::memory_order_acq_rel);
    if (old != nullptr) retired_rings_.push_back(old);
    capacity_.store(capacity, std::memory_order_relaxed);
    next_.store(0, std::memory_order_relaxed);
  }
  detail::flight_on.store(true, std::memory_order_relaxed);
}

void FlightRecorder::disable() noexcept {
  detail::flight_on.store(false, std::memory_order_relaxed);
}

void FlightRecorder::clear() noexcept {
  disable();
  Slot* ring = ring_.load(std::memory_order_acquire);
  const std::size_t capacity = capacity_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < capacity; ++i) {
    ring[i].commit.store(0, std::memory_order_relaxed);
  }
  next_.store(0, std::memory_order_relaxed);
}

std::size_t FlightRecorder::capacity() const noexcept {
  return capacity_.load(std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::recorded() const noexcept {
  return next_.load(std::memory_order_relaxed);
}

void FlightRecorder::record(FlightKind kind, int job, double a, double b,
                            const char* detail, double sim_s) noexcept {
  Slot* ring = ring_.load(std::memory_order_acquire);
  const std::size_t capacity = capacity_.load(std::memory_order_relaxed);
  if (ring == nullptr || capacity == 0) return;
  const std::uint64_t seq =
      next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring[seq % capacity];
  slot.commit.store(0, std::memory_order_release);  // writer owns the slot
  slot.wall_us.store(wall_now_us(), std::memory_order_relaxed);
  slot.sim_s.store(sim_s, std::memory_order_relaxed);
  slot.kind.store(static_cast<int>(kind), std::memory_order_relaxed);
  slot.job.store(job, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  // Sanitize + pack the detail text into whole words (crash-time reads
  // then cannot observe a torn string).
  char text[kDetailBytes] = {0};
  if (detail != nullptr) {
    std::size_t n = 0;
    for (; n + 1 < kDetailBytes && detail[n] != '\0'; ++n) {
      const char c = detail[n];
      text[n] = (c >= 0x20 && c < 0x7f && c != '"' && c != '\\') ? c : '_';
    }
  }
  for (std::size_t w = 0; w < kDetailWords; ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, text + w * sizeof(word), sizeof(word));
    slot.detail[w].store(word, std::memory_order_relaxed);
  }
  slot.commit.store(seq + 1, std::memory_order_release);
}

bool FlightRecorder::read_slot(std::uint64_t seq,
                               FlightEvent& out) const noexcept {
  const Slot* ring = ring_.load(std::memory_order_acquire);
  const std::size_t capacity = capacity_.load(std::memory_order_relaxed);
  if (ring == nullptr || capacity == 0) return false;
  const Slot& slot = ring[seq % capacity];
  if (slot.commit.load(std::memory_order_acquire) != seq + 1) return false;
  out.seq = seq;
  out.wall_us = slot.wall_us.load(std::memory_order_relaxed);
  out.sim_s = slot.sim_s.load(std::memory_order_relaxed);
  out.kind = static_cast<FlightKind>(slot.kind.load(std::memory_order_relaxed));
  out.job = slot.job.load(std::memory_order_relaxed);
  out.a = slot.a.load(std::memory_order_relaxed);
  out.b = slot.b.load(std::memory_order_relaxed);
  for (std::size_t w = 0; w < kDetailWords; ++w) {
    const std::uint64_t word = slot.detail[w].load(std::memory_order_relaxed);
    std::memcpy(out.detail + w * sizeof(word), &word, sizeof(word));
  }
  out.detail[sizeof(out.detail) - 1] = '\0';
  // A writer may have started reusing the slot while the fields were
  // copied; the second stamp read catches that.
  return slot.commit.load(std::memory_order_acquire) == seq + 1;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::uint64_t next = next_.load(std::memory_order_relaxed);
  const std::size_t capacity = capacity_.load(std::memory_order_relaxed);
  const std::uint64_t first =
      next > capacity ? next - capacity : 0;
  std::vector<FlightEvent> events;
  events.reserve(static_cast<std::size_t>(next - first));
  for (std::uint64_t seq = first; seq < next; ++seq) {
    FlightEvent event;
    if (read_slot(seq, event)) events.push_back(event);
  }
  return events;
}

std::string FlightRecorder::dump_jsonl() const {
  std::string out;
  char line[512];
  for (const FlightEvent& event : snapshot()) {
    out.append(line, format_event(event, line, sizeof(line)));
  }
  return out;
}

util::Status FlightRecorder::dump_to_file(const std::string& path) const {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return util::Error{"flight dump: cannot open " + path + ": " +
                       std::strerror(errno)};
  }
  dump_to_fd(fd);
  ::close(fd);
  return util::Status::ok();
}

void FlightRecorder::dump_to_fd(int fd) const noexcept {
  const std::uint64_t next = next_.load(std::memory_order_relaxed);
  const std::size_t capacity = capacity_.load(std::memory_order_relaxed);
  const std::uint64_t first = next > capacity ? next - capacity : 0;
  char line[512];
  for (std::uint64_t seq = first; seq < next; ++seq) {
    FlightEvent event;
    if (!read_slot(seq, event)) continue;
    write_all(fd, line, format_event(event, line, sizeof(line)));
  }
}

util::Status FlightRecorder::install_crash_handler(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return util::Error{"flight crash handler: cannot open " + path + ": " +
                       std::strerror(errno)};
  }
  const int previous = g_crash_fd.exchange(fd, std::memory_order_relaxed);
  if (previous >= 0) ::close(previous);
  struct sigaction action {};
  action.sa_handler = flight_crash_handler;
  ::sigemptyset(&action.sa_mask);
  // SA_RESETHAND: the handler runs once, then raise(signo) re-enters the
  // default disposition so the crash still terminates the process.
  action.sa_flags = SA_RESETHAND | SA_NODEFER;
  for (const int signo : {SIGSEGV, SIGABRT, SIGBUS}) {
    if (::sigaction(signo, &action, nullptr) != 0) {
      return util::Error{std::string("flight crash handler: sigaction: ") +
                         std::strerror(errno)};
    }
  }
  return util::Status::ok();
}

}  // namespace gts::obs
