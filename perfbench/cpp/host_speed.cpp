#include "host_speed.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "harness.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSlots = 8192;   // open-addressing table, power of 2
constexpr std::uint64_t kKeys = 6000;  // distinct keys: load factor < 0.75
constexpr std::size_t kSorted = 2048;
constexpr int kRounds = 384;
constexpr int kOps = 512;

/// The reference's working set, allocated once so a sample makes no heap
/// allocation and does not depend on the allocator's state.
struct Work {
  std::array<std::uint64_t, kSlots> keys;
  std::array<double, kSlots> values;
  std::array<double, kSorted> sorted;
};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t slot_of(const Work& work, std::uint64_t key) {
  auto slot = static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 51);
  while (work.keys[slot] != 0 && work.keys[slot] != key) {
    slot = (slot + 1) & (kSlots - 1);
  }
  return slot;
}

/// Hash-table inserts and lookups, sorts and some floating point, the
/// kinds of work the scheduler's decisions are made of, on the same
/// inputs every time. Returns a value so the work is not elided.
double reference(Work& work) {
  std::uint64_t state = 42;
  work.keys.fill(0);
  work.values.fill(0.0);
  double acc = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kOps; ++i) {
      const std::uint64_t key = splitmix64(state) % kKeys + 1;
      const std::size_t slot = slot_of(work, key);
      work.keys[slot] = key;
      work.values[slot] += 1.5;
    }
    for (double& value : work.sorted) {
      value = static_cast<double>(splitmix64(state) % 100000) * 1e-3;
    }
    std::sort(work.sorted.begin(), work.sorted.end());
    for (int i = 0; i < kOps; ++i) {
      const std::size_t slot = slot_of(work, splitmix64(state) % kKeys + 1);
      acc += std::log1p(work.values[slot]);
    }
    acc += work.sorted[kSorted / 2];
  }
  return acc;
}

volatile double sink;

}  // namespace

void HostSpeed::sample() {
  static Work work;
  const Clock::time_point start = Clock::now();
  sink = reference(work);
  samples_.push_back(seconds_between(start, Clock::now()));
}

double HostSpeed::scale(double seconds) {
  if (samples_.empty()) sample();
  const double before = samples_.back();
  sample();
  const double slowdown = (before + samples_.back()) / 2.0 / kNominalSeconds;
  return seconds / slowdown;
}

double HostSpeed::median_seconds() const { return median(samples_); }

}  // namespace perfbench
