// Cell partitioning: slicing one datacenter topology into contiguous
// machine ranges ("cells"), each owned by its own scheduler instance
// (DESIGN.md section 19).
//
// A cell's sub-topology is extracted from the cluster graph: nodes are
// copied in original insertion order (so GPU indices stay dense and in the
// same relative order), machine indices are rebased to start at 0, and a
// synthetic network root replaces the cluster root for multi-machine
// cells. Structure and distance caches are pre-warmed at extraction, so
// no cell pays for a lazy first build mid-run.
#pragma once

#include <utility>
#include <vector>

#include "topo/topology.hpp"

namespace gts::shard {

/// Machine range [begin, end) of every cell: contiguous, near-equal
/// (the first `machines % shards` cells get one extra machine). `shards`
/// is clamped to [1, machines].
std::vector<std::pair<int, int>> partition_machines(int machines,
                                                    int shards);

/// One cell's extracted sub-topology plus the id translations the facade
/// needs to speak the global GPU id space.
struct CellTopology {
  topo::TopologyGraph graph;
  /// First global machine index of the cell; local machine m is global
  /// machine_begin + m.
  int machine_begin = 0;
  /// Local GPU id -> global GPU id (dense, ascending).
  std::vector<int> gpu_to_global;
};

/// Extracts machines [machine_begin, machine_end) of `cluster` into a
/// standalone graph. Mirrors topo::builders::cluster shape rules: cells
/// spanning more than one machine get a fresh network root carrying the
/// original machine-uplink links; single-machine cells have no root (and
/// drop the uplink), exactly like a standalone machine graph. Caches are
/// warmed before returning.
CellTopology extract_cell(const topo::TopologyGraph& cluster,
                          int machine_begin, int machine_end);

}  // namespace gts::shard
