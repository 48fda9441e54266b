#include "sched/placement_cache_key.hpp"

namespace gts::sched {

namespace {

/// Two independent FNV-1a 64-bit accumulators fed the same byte stream.
class Fnv128 {
 public:
  void bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h1_ = (h1_ ^ p[i]) * kPrime;
      h2_ = (h2_ ^ p[i]) * kPrime;
    }
  }
  void add_int(int value) { bytes(&value, sizeof(value)); }
  void add_double(double value) { bytes(&value, sizeof(value)); }

  std::uint64_t h1() const noexcept { return h1_; }
  std::uint64_t h2() const noexcept { return h2_; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ULL;
  static constexpr std::uint64_t kBasis = 14695981039346656037ULL;
  std::uint64_t h1_ = kBasis;
  std::uint64_t h2_ = kBasis ^ 0x9e3779b97f4a7c15ULL;  // independent basis
};

/// Streams every field the evaluation depends on into `sink`.
void stream_key_fields(Fnv128& sink, const jobgraph::JobRequest& request,
                       const std::vector<int>& available) {
  sink.add_int(static_cast<int>(available.size()));
  for (const int gpu : available) sink.add_int(gpu);
  const jobgraph::JobProfile& profile = request.profile;
  sink.add_int(request.num_gpus);
  sink.add_int(static_cast<int>(profile.nn));
  sink.add_int(static_cast<int>(profile.batch));
  sink.add_int(profile.batch_size);
  sink.add_int((profile.single_node ? 1 : 0) |
               (profile.anti_collocate ? 2 : 0));
  sink.add_double(profile.comm_weight);
  sink.add_double(profile.host_bw_demand_gbps);
  sink.add_double(profile.solo_time_pack);
  sink.add_double(profile.solo_time_spread);
  for (const double slowdown : profile.collocation_slowdown) {
    sink.add_double(slowdown);
  }
  sink.add_int(request.comm_graph.task_count());
  for (const jobgraph::CommEdge& edge : request.comm_graph.edges()) {
    sink.add_int(edge.a);
    sink.add_int(edge.b);
    sink.add_double(edge.weight);
  }
}

}  // namespace

PlacementCacheKey hashed_placement_cache_key(
    const jobgraph::JobRequest& request, const std::vector<int>& available) {
  Fnv128 fnv;
  stream_key_fields(fnv, request, available);
  PlacementCacheKey key;
  key.h1 = fnv.h1();
  key.h2 = fnv.h2();
  key.available_count = static_cast<std::uint32_t>(available.size());
  key.first_gpu = available.empty() ? -1 : available.front();
  key.last_gpu = available.empty() ? -1 : available.back();
  key.num_gpus = request.num_gpus;
  key.task_count = request.comm_graph.task_count();
  return key;
}

}  // namespace gts::sched
