// Committed decision digests: 64-bit FNV-1a hashes over the exact bits of
// scheduling outcomes. A test pins a workload's behaviour by comparing its
// digest against a constant recorded once; any drift in a placement, a
// time or a utility changes the hash. On a mismatch, print the digest with
// `hex()` so an intended change can be re-pinned from the failure message.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "cluster/recorder.hpp"
#include "partition/fm.hpp"

namespace gts::testing_digest {

/// 64-bit FNV-1a over a stream of 64-bit words (little-endian bytes).
class Fnv1a {
 public:
  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 1099511628211ULL;
    }
  }
  void mix_double(double value) { mix(bits(value)); }
  std::uint64_t value() const noexcept { return hash_; }

  static std::uint64_t bits(double value) {
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof word);
    return word;
  }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Every job record in order: id, GPU list, and the bits of the start,
/// end and placement-utility doubles.
inline std::uint64_t decision_digest(const cluster::Recorder& recorder) {
  Fnv1a fnv;
  for (const cluster::JobRecord& record : recorder.records()) {
    fnv.mix(static_cast<std::uint64_t>(record.id));
    fnv.mix(record.gpus.size());
    for (const int gpu : record.gpus) fnv.mix(static_cast<std::uint64_t>(gpu));
    fnv.mix_double(record.start);
    fnv.mix_double(record.end);
    fnv.mix_double(record.placement_utility);
  }
  return fnv.value();
}

/// Folds one FM result into `fnv`: the side vector, the pass count and
/// the bits of the final and initial cut weights.
inline void mix_fm_result(Fnv1a& fnv, const partition::FmResult& result) {
  fnv.mix(result.side.size());
  for (const int side : result.side) fnv.mix(static_cast<std::uint64_t>(side));
  fnv.mix(static_cast<std::uint64_t>(result.passes));
  fnv.mix_double(result.cut_weight);
  fnv.mix_double(result.initial_cut);
}

/// "0x%016llx", for failure messages that re-pin a digest.
inline std::string hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace gts::testing_digest
