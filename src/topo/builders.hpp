// Canonical topology builders for the systems in the paper (Fig. 1/7):
//   * IBM Power8 S822LC "Minsky": 2 sockets x 2 Tesla P100, dual-lane
//     NVLink GPU<->GPU and CPU<->GPU within a socket, X-bus across sockets.
//   * The same chassis with PCI-e Gen3 and K80s (Section 3.2's comparison
//     machine).
//   * NVIDIA DGX-1: 8 P100s in a hybrid cube-mesh of single-lane NVLinks,
//     plus 4 PCI-e switches (2 GPUs each) uplinked to 2 sockets.
//   * Homogeneous clusters of any of the above joined by a network root
//     (the simulation scenarios use clusters of Minsky machines).
#pragma once

#include "topo/topology.hpp"

namespace gts::topo::builders {

/// Peak unidirectional bandwidths (GB/s) used across builders. These follow
/// the paper: a single NVLink lane supports 20 GB/s, PCI-e v3 x16 16 GB/s.
struct BandwidthParams {
  double nvlink_lane_gbps = 20.0;
  double pcie_x16_gbps = 16.0;
  double smp_bus_gbps = 32.0;    // Power8 X-bus / x86 QPI class
  double network_gbps = 12.5;    // 100 GbE class cluster interconnect
};

struct MachineShapeOptions {
  BandwidthParams bandwidth{};
  LevelWeights weights{};
};

/// One IBM Power8 "Minsky" node: 2 sockets, 2 GPUs per socket, dual NVLink
/// everywhere within a socket. GPUs are globally indexed 0..3; GPUs {0,1}
/// sit on socket 0 and {2,3} on socket 1, matching Fig. 2.
TopologyGraph power8_minsky(const MachineShapeOptions& options = {});

/// The PCI-e Gen3 + K80 variant of the same chassis (no NVLink anywhere;
/// GPU<->GPU within a socket goes through the socket's PCI-e root).
TopologyGraph power8_pcie(const MachineShapeOptions& options = {});

/// NVIDIA DGX-1: GPUs 0..7; quads {0,1,2,3} (socket 0) and {4,5,6,7}
/// (socket 1) are NVLink cliques, with cross links 0-4, 1-5, 2-6, 3-7; each
/// pair of GPUs shares a PCI-e switch uplinked to its socket.
TopologyGraph dgx1(const MachineShapeOptions& options = {});

enum class MachineShape { kPower8Minsky, kPower8Pcie, kDgx1 };

/// A cluster of `machine_count` identical machines joined by one network
/// root node. GPU global indices are machine-major (machine m owns GPUs
/// [m*per_machine, (m+1)*per_machine)).
TopologyGraph cluster(int machine_count, MachineShape shape,
                      const MachineShapeOptions& options = {});

/// A heterogeneous cluster: one machine per entry of `shapes` (e.g. a mix
/// of Minsky and DGX-1 nodes), joined by one network root. GPU global
/// indices remain machine-major in `shapes` order.
TopologyGraph mixed_cluster(const std::vector<MachineShape>& shapes,
                            const MachineShapeOptions& options = {});

/// Number of GPUs contributed by one machine of `shape`.
int gpus_per_machine(MachineShape shape) noexcept;

/// One-stop builder for the large synthetic benchmark clusters
/// (bench_overhead / bench_service_load / bench_scale): builds
/// `cluster(machines, fabric)`, cross-checks the caller's per-machine GPU
/// expectation against the fabric, and pre-warms the lazily built
/// structure / distance caches (TopologyGraph::warm_caches), so later
/// const lookups are pure reads. `gpus_per_machine` must match
/// `gpus_per_machine(fabric)` — the parameter exists so workload
/// generators that size jobs off it are checked against the fabric they
/// actually got.
TopologyGraph make_cluster(int machines, int gpus_per_machine,
                           MachineShape fabric,
                           const MachineShapeOptions& options = {});

}  // namespace gts::topo::builders
