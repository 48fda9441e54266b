#include "partition/fm.hpp"

#include <algorithm>
#include <cmath>

#include "check/check.hpp"

namespace gts::partition {

namespace {

/// Builds the CSR adjacency for `graph` into `s` and returns the maximum
/// weighted degree (an upper bound on |gain| throughout the call).
double build_csr(const FmGraph& graph, FmScratch& s) {
  const size_t n = static_cast<size_t>(graph.vertex_count);
  s.adj_offset.assign(n + 1, 0);
  for (const FmGraph::Edge& edge : graph.edges) {
    ++s.adj_offset[static_cast<size_t>(edge.a) + 1];
    ++s.adj_offset[static_cast<size_t>(edge.b) + 1];
  }
  for (size_t v = 0; v < n; ++v) s.adj_offset[v + 1] += s.adj_offset[v];
  s.adj_vertex.resize(static_cast<size_t>(s.adj_offset[n]));
  s.adj_weight.resize(static_cast<size_t>(s.adj_offset[n]));
  // Fill using a cursor per vertex (reuse gain[] as scratch is unsafe:
  // weights are doubles — use a local copy of the offsets instead).
  std::vector<int>& cursor = s.bucket_of;  // reused as temp before buckets
  cursor.assign(n, 0);
  for (size_t v = 0; v < n; ++v) cursor[v] = s.adj_offset[v];
  for (const FmGraph::Edge& edge : graph.edges) {
    const size_t a = static_cast<size_t>(edge.a);
    const size_t b = static_cast<size_t>(edge.b);
    s.adj_vertex[static_cast<size_t>(cursor[a])] = edge.b;
    s.adj_weight[static_cast<size_t>(cursor[a])] = edge.weight;
    ++cursor[a];
    s.adj_vertex[static_cast<size_t>(cursor[b])] = edge.a;
    s.adj_weight[static_cast<size_t>(cursor[b])] = edge.weight;
    ++cursor[b];
  }
  double max_degree = 0.0;
  for (size_t v = 0; v < n; ++v) {
    double degree = 0.0;
    for (int i = s.adj_offset[v]; i < s.adj_offset[v + 1]; ++i) {
      degree += std::abs(s.adj_weight[static_cast<size_t>(i)]);
    }
    max_degree = std::max(max_degree, degree);
  }
  return max_degree;
}

/// The quantized gain buckets. Bucket order is consistent with exact gain
/// order (floor of a monotone map), so walking buckets high-to-low and
/// scanning one bucket exactly reproduces the total (gain desc, id asc)
/// order of a std::set<(-gain, vertex)>.
class BucketList {
 public:
  BucketList(FmScratch& s, int n, double max_gain) : s_(s) {
    // ~2 vertices per bucket keeps the exact in-bucket scan short without
    // allocating an unbounded bucket array for large gain ranges.
    count_ = std::clamp(2 * n, 16, 4096);
    if (static_cast<int>(s_.buckets.size()) < count_) {
      s_.buckets.resize(static_cast<size_t>(count_));
    }
    for (int b = 0; b < count_; ++b) {
      s_.buckets[static_cast<size_t>(b)].clear();
    }
    bound_ = max_gain;
    inv_quantum_ = (bound_ > 0.0)
                       ? static_cast<double>(count_) / (2.0 * bound_)
                       : 0.0;
    s_.bucket_of.assign(static_cast<size_t>(n), -1);
    s_.slot_of.assign(static_cast<size_t>(n), -1);
    highest_ = 0;
  }

  int index_of(double gain) const {
    if (inv_quantum_ <= 0.0) return 0;
    const int raw = static_cast<int>((gain + bound_) * inv_quantum_);
    return std::clamp(raw, 0, count_ - 1);
  }

  void insert(int v, double gain) {
    const int b = index_of(gain);
    std::vector<int>& bucket = s_.buckets[static_cast<size_t>(b)];
    s_.bucket_of[static_cast<size_t>(v)] = b;
    s_.slot_of[static_cast<size_t>(v)] = static_cast<int>(bucket.size());
    bucket.push_back(v);
    highest_ = std::max(highest_, b);
  }

  void remove(int v) {
    const int b = s_.bucket_of[static_cast<size_t>(v)];
    std::vector<int>& bucket = s_.buckets[static_cast<size_t>(b)];
    const int slot = s_.slot_of[static_cast<size_t>(v)];
    const int last = bucket.back();
    bucket[static_cast<size_t>(slot)] = last;
    s_.slot_of[static_cast<size_t>(last)] = slot;
    bucket.pop_back();
    s_.bucket_of[static_cast<size_t>(v)] = -1;
  }

  /// Relinks `v` after its gain changed (no-op when the bucket is stable;
  /// the exact gain lives in s_.gain, not in the bucket).
  void update(int v, double gain) {
    const int b = index_of(gain);
    if (b == s_.bucket_of[static_cast<size_t>(v)]) return;
    remove(v);
    std::vector<int>& bucket = s_.buckets[static_cast<size_t>(b)];
    s_.bucket_of[static_cast<size_t>(v)] = b;
    s_.slot_of[static_cast<size_t>(v)] = static_cast<int>(bucket.size());
    bucket.push_back(v);
    highest_ = std::max(highest_, b);
  }

  /// Highest-gain vertex (ties: lowest id) whose move `legal` accepts, or
  /// -1 when no unlocked vertex has a legal move. Walks buckets downward;
  /// the first bucket containing a legal vertex decides (every vertex in
  /// a higher bucket was already rejected, every lower bucket loses).
  template <typename Legal>
  int pop_best(const Legal& legal) {
    while (highest_ > 0 && s_.buckets[static_cast<size_t>(highest_)].empty()) {
      --highest_;
    }
    for (int b = highest_; b >= 0; --b) {
      const std::vector<int>& bucket = s_.buckets[static_cast<size_t>(b)];
      int best = -1;
      for (const int v : bucket) {
        if (!legal(v)) continue;
        if (best < 0 ||
            s_.gain[static_cast<size_t>(v)] > s_.gain[static_cast<size_t>(best)] ||
            (s_.gain[static_cast<size_t>(v)] ==
                 s_.gain[static_cast<size_t>(best)] &&
             v < best)) {
          best = v;
        }
      }
      if (best >= 0) {
        remove(best);
        return best;
      }
    }
    return -1;
  }

 private:
  FmScratch& s_;
  int count_ = 0;
  int highest_ = 0;
  double bound_ = 0.0;
  double inv_quantum_ = 0.0;
};

}  // namespace

double cut_weight(const FmGraph& graph, const std::vector<int>& side) {
  double cut = 0.0;
  for (const FmGraph::Edge& edge : graph.edges) {
    if (side[static_cast<size_t>(edge.a)] != side[static_cast<size_t>(edge.b)]) {
      cut += edge.weight;
    }
  }
  return cut;
}

FmResult fm_bipartition(const FmGraph& graph, std::vector<int> initial,
                        const FmOptions& options, FmScratch* scratch) {
  static thread_local FmScratch tls_scratch;
  FmScratch& s = scratch != nullptr ? *scratch : tls_scratch;

  const int n = graph.vertex_count;
  GTS_CHECK_EQ(static_cast<int>(initial.size()), n);

  FmResult result;
  result.side = std::move(initial);
  result.initial_cut = cut_weight(graph, result.side);
  result.cut_weight = result.initial_cut;
  if (n < 2) return result;

  const double max_gain = build_csr(graph, s);
  // FM's classic balance criterion allows a one-vertex slack around the
  // target fraction so moves are possible from an exactly-balanced start.
  int max_side = static_cast<int>(options.max_side_fraction *
                                  static_cast<double>(n));
  max_side = std::max(max_side, n / 2 + 1);
  max_side = std::min(max_side, n - options.min_side);

  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++result.passes;
    s.side.assign(result.side.begin(), result.side.end());
    int count0 = static_cast<int>(
        std::count(s.side.begin(), s.side.end(), 0));

    // Initial gains straight from CSR, each vertex filed in its bucket.
    s.gain.resize(static_cast<size_t>(n));
    s.locked.assign(static_cast<size_t>(n), 0);
    BucketList order(s, n, max_gain);
    for (int v = 0; v < n; ++v) {
      double gain = 0.0;
      for (int i = s.adj_offset[static_cast<size_t>(v)];
           i < s.adj_offset[static_cast<size_t>(v) + 1]; ++i) {
        const int peer = s.adj_vertex[static_cast<size_t>(i)];
        gain += (s.side[static_cast<size_t>(peer)] !=
                 s.side[static_cast<size_t>(v)])
                    ? s.adj_weight[static_cast<size_t>(i)]
                    : -s.adj_weight[static_cast<size_t>(i)];
      }
      s.gain[static_cast<size_t>(v)] = gain;
      order.insert(v, gain);
    }

    // Tentatively move every vertex once, tracking the best prefix.
    s.move_vertex.clear();
    s.move_cut.clear();
    double running_cut = result.cut_weight;

    for (int moved = 0; moved < n; ++moved) {
      // Pick the best-gain vertex whose move keeps both sides legal.
      const int chosen = order.pop_best([&](int v) {
        const int from = s.side[static_cast<size_t>(v)];
        const int count0_after = count0 + (from == 0 ? -1 : +1);
        const int count1_after = n - count0_after;
        return count0_after >= options.min_side &&
               count1_after >= options.min_side && count0_after <= max_side &&
               count1_after <= max_side;
      });
      if (chosen < 0) break;  // no legal move remains
      s.locked[static_cast<size_t>(chosen)] = 1;

      const int from = s.side[static_cast<size_t>(chosen)];
      s.side[static_cast<size_t>(chosen)] = 1 - from;
      count0 += (from == 0 ? -1 : +1);
      running_cut -= s.gain[static_cast<size_t>(chosen)];
      s.move_vertex.push_back(chosen);
      s.move_cut.push_back(running_cut);

      // Update neighbor gains (FM's incremental rule).
      for (int i = s.adj_offset[static_cast<size_t>(chosen)];
           i < s.adj_offset[static_cast<size_t>(chosen) + 1]; ++i) {
        const int nb = s.adj_vertex[static_cast<size_t>(i)];
        if (s.locked[static_cast<size_t>(nb)] != 0) continue;
        const double w = s.adj_weight[static_cast<size_t>(i)];
        // Neighbor previously saw `chosen` on side `from`; it moved away.
        if (s.side[static_cast<size_t>(nb)] == from) {
          // Edge became external: gain increases by 2w.
          s.gain[static_cast<size_t>(nb)] += 2 * w;
        } else {
          s.gain[static_cast<size_t>(nb)] -= 2 * w;
        }
        order.update(nb, s.gain[static_cast<size_t>(nb)]);
      }
    }

    // Find the best prefix of moves (strictly better than the pass start).
    double best_cut = result.cut_weight;
    int best_prefix = 0;
    for (size_t i = 0; i < s.move_cut.size(); ++i) {
      if (s.move_cut[i] < best_cut - 1e-12) {
        best_cut = s.move_cut[i];
        best_prefix = static_cast<int>(i) + 1;
      }
    }
    if (best_prefix == 0) break;  // converged

    for (int i = 0; i < best_prefix; ++i) {
      const int v = s.move_vertex[static_cast<size_t>(i)];
      result.side[static_cast<size_t>(v)] = 1 - result.side[static_cast<size_t>(v)];
    }
    result.cut_weight = best_cut;
  }

  // Guard against floating-point drift in the incremental cut tracking.
  result.cut_weight = cut_weight(graph, result.side);
  return result;
}

}  // namespace gts::partition
