// Fiduccia-Mattheyses bipartitioning (Fiduccia & Mattheyses, DAC'82).
//
// The paper's DRB mapper bi-partitions the physical topology graph with FM
// ("the physical graph bi-partition is performed with the well-known
// Fiduccia Mattheyses algorithm that minimizes the cut-sets", Section 4.4).
//
// This is the classic single-vertex-move variant for weighted undirected
// graphs: passes of tentative best-gain moves with per-vertex locking,
// rolled back to the best prefix. Vertex selection among equal gains is
// deterministic (lowest vertex id), so results are reproducible.
//
// The gain order lives in the classic FM bucket-list structure, adapted to
// real-valued weights: buckets quantize the gain axis (quantization only
// partitions the order — any two gains in different buckets compare the
// same way their buckets do), and the highest non-empty bucket is scanned
// exactly for (max gain, min vertex id). Best-gain pop is therefore a
// bucket walk, and a neighbor gain update is an O(1) bucket relink; the
// result is identical, move for move, to the original totally ordered
// set<(-gain, vertex)> implementation, pinned by a committed digest over
// 1600 random graphs (tests/perf_path_test.cpp).
//
// All per-call storage (CSR adjacency, gains, buckets, move log) comes
// from an FmScratch arena so the thousands of FM calls inside one DRB
// recursion reuse the same allocations. Passing nullptr uses a
// thread-local arena, which keeps concurrent runner replicas independent.
#pragma once

#include <cstdint>
#include <vector>

namespace gts::partition {

/// Undirected weighted graph in edge-list form for FM.
struct FmGraph {
  int vertex_count = 0;
  struct Edge {
    int a = 0;
    int b = 0;
    double weight = 0.0;
  };
  std::vector<Edge> edges;
};

struct FmOptions {
  /// Maximum refinement passes; FM usually converges in 2-4.
  int max_passes = 8;
  /// Each side must keep at least `min_side` vertices.
  int min_side = 1;
  /// Maximum allowed |side0| as a fraction of all vertices (and likewise
  /// for side1 via symmetry). 1.0 disables the balance constraint except
  /// for min_side.
  double max_side_fraction = 1.0;
};

struct FmResult {
  std::vector<int> side;  // 0 or 1 per vertex
  double cut_weight = 0.0;
  int passes = 0;         // passes actually executed
  double initial_cut = 0.0;
};

/// Reusable per-call storage for fm_bipartition. A scratch object may be
/// reused across any number of sequential calls (the hot path keeps one
/// per thread); it must not be shared by concurrent calls.
struct FmScratch {
  // CSR adjacency rebuilt per call (offsets into vertex/weight arrays).
  std::vector<int> adj_offset;
  std::vector<int> adj_vertex;
  std::vector<double> adj_weight;
  // Per-vertex pass state.
  std::vector<double> gain;
  std::vector<std::uint8_t> locked;
  std::vector<int> side;
  // Gain bucket lists: bucket -> vertex ids; per-vertex back-references
  // for O(1) removal by swap-with-last.
  std::vector<std::vector<int>> buckets;
  std::vector<int> bucket_of;
  std::vector<int> slot_of;
  // Move log of the current pass.
  std::vector<int> move_vertex;
  std::vector<double> move_cut;
};

/// Total weight of edges crossing the partition.
double cut_weight(const FmGraph& graph, const std::vector<int>& side);

/// Refines `initial` (0/1 per vertex); the result cut is never worse than
/// the initial cut. `scratch` may carry reusable buffers across calls;
/// nullptr uses a thread-local arena.
FmResult fm_bipartition(const FmGraph& graph, std::vector<int> initial,
                        const FmOptions& options = {},
                        FmScratch* scratch = nullptr);

}  // namespace gts::partition
