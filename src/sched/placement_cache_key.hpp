// Placement-cache keys for TopoAwareScheduler::map_onto().
//
// The key serializes everything the DRB + utility evaluation depends on
// besides cluster state: the candidate GPU set and the job's shape. Job id
// and min_utility are deliberately excluded — the id only feeds
// co_runners() as a self-exclusion (a queued job is never running), and
// min_utility only gates the `satisfied` bit, recomputed per request.
//
// The production key streams those fields through two independent 64-bit
// FNV-1a accumulators (128 hash bits total) and carries a cheap equality
// payload (set size, first/last GPU, job shape) — no per-lookup string
// allocation. A spurious hit would need a simultaneous collision of both
// accumulators AND an identical payload; at the cache's size (thousands of
// entries per allocation epoch) the probability is negligible. The hashed
// key replaced a byte-string serialization of the same fields; the seeded
// 500-job trace's decisions and cache lookup/hit counts, identical under
// both keys, are pinned by committed digests (tests/perf_path_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "jobgraph/jobgraph.hpp"

namespace gts::sched {

struct PlacementCacheKey {
  std::uint64_t h1 = 0;  // FNV-1a, standard offset basis
  std::uint64_t h2 = 0;  // FNV-1a, independent offset basis
  // Equality payload: cheap fields compared verbatim on lookup.
  std::uint32_t available_count = 0;
  std::int32_t first_gpu = -1;
  std::int32_t last_gpu = -1;
  std::int32_t num_gpus = 0;
  std::int32_t task_count = 0;

  bool operator==(const PlacementCacheKey& other) const = default;
};

struct PlacementCacheKeyHash {
  size_t operator()(const PlacementCacheKey& key) const noexcept {
    return static_cast<size_t>(key.h1);
  }
};

/// The production key: hashed, allocation-free.
PlacementCacheKey hashed_placement_cache_key(
    const jobgraph::JobRequest& request, const std::vector<int>& available);

}  // namespace gts::sched
