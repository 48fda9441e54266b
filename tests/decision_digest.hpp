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
  void mix_byte(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ULL;
  }
  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      mix_byte(static_cast<unsigned char>((word >> (8 * byte)) & 0xffU));
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

/// `bytes` with every `"decision_us":<number>` value replaced by 0.
/// decision_us is the one wall-clock field of an explain record
/// (obs/explain.hpp): it measures the place() call, so it differs between
/// any two runs. Every other byte of the explain JSONL is deterministic.
inline std::string mask_decision_us(const std::string& bytes) {
  const std::string key = "\"decision_us\":";
  std::string masked;
  masked.reserve(bytes.size());
  size_t copied = 0;
  size_t pos = 0;
  while ((pos = bytes.find(key, copied)) != std::string::npos) {
    const size_t value_begin = pos + key.size();
    size_t value_end = value_begin;
    while (value_end < bytes.size() && bytes[value_end] != ',' &&
           bytes[value_end] != '}') {
      ++value_end;
    }
    masked.append(bytes, copied, value_begin - copied);
    masked.push_back('0');
    copied = value_end;
  }
  masked.append(bytes, copied, std::string::npos);
  return masked;
}

/// FNV-1a over the bytes of `text`.
inline std::uint64_t text_digest(const std::string& text) {
  Fnv1a fnv;
  for (const char c : text) fnv.mix_byte(static_cast<unsigned char>(c));
  return fnv.value();
}

/// "0x%016llx", for failure messages that re-pin a digest.
inline std::string hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace gts::testing_digest
