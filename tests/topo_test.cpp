#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "decision_digest.hpp"
#include "shard/cells.hpp"
#include "topo/builders.hpp"
#include "topo/topology.hpp"

namespace gts::topo {
namespace {

using builders::MachineShape;

TEST(Power8MinskyTest, Shape) {
  const TopologyGraph g = builders::power8_minsky();
  EXPECT_TRUE(g.validate().is_ok());
  EXPECT_EQ(g.gpu_count(), 4);
  EXPECT_EQ(g.machine_count(), 1);
  EXPECT_EQ(g.sockets_of_machine(0), 2);
  EXPECT_EQ(g.gpus_of_socket(0, 0), (std::vector<int>{0, 1}));
  EXPECT_EQ(g.gpus_of_socket(0, 1), (std::vector<int>{2, 3}));
}

TEST(Power8MinskyTest, SameSocketPairsAreP2PAtDistanceOne) {
  const TopologyGraph g = builders::power8_minsky();
  EXPECT_DOUBLE_EQ(g.gpu_distance(0, 1), 1.0);
  EXPECT_TRUE(g.gpu_path(0, 1).peer_to_peer);
  EXPECT_DOUBLE_EQ(g.gpu_path(0, 1).bottleneck_gbps, 40.0);
  EXPECT_DOUBLE_EQ(g.gpu_distance(2, 3), 1.0);
  EXPECT_TRUE(g.gpu_path(2, 3).peer_to_peer);
}

TEST(Power8MinskyTest, CrossSocketPairsRouteThroughHost) {
  const TopologyGraph g = builders::power8_minsky();
  // GPU0 -> S0 (1) -> M (20) -> S1 (20) -> GPU2 (1) = 42.
  EXPECT_DOUBLE_EQ(g.gpu_distance(0, 2), 42.0);
  EXPECT_FALSE(g.gpu_path(0, 2).peer_to_peer);
  // Bottleneck is the SMP bus.
  EXPECT_DOUBLE_EQ(g.gpu_path(0, 2).bottleneck_gbps, 32.0);
}

TEST(Power8MinskyTest, DistancesSymmetric) {
  const TopologyGraph g = builders::power8_minsky();
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(g.gpu_distance(i, j), g.gpu_distance(j, i));
    }
  }
}

TEST(Power8MinskyTest, MaxGpuDistanceIsCrossSocket) {
  const TopologyGraph g = builders::power8_minsky();
  EXPECT_DOUBLE_EQ(g.max_gpu_distance(), 42.0);
}

TEST(Power8PcieTest, NoPeerToPeerAnywhere) {
  const TopologyGraph g = builders::power8_pcie();
  EXPECT_TRUE(g.validate().is_ok());
  for (int i = 0; i < g.gpu_count(); ++i) {
    for (int j = 0; j < g.gpu_count(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(g.gpu_path(i, j).peer_to_peer)
          << "pair " << i << "," << j;
    }
  }
  // Same-socket PCI-e pair: GPU -> socket -> GPU, distance 2, bottleneck 16.
  EXPECT_DOUBLE_EQ(g.gpu_distance(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.gpu_path(0, 1).bottleneck_gbps, 16.0);
}

TEST(Dgx1Test, Shape) {
  const TopologyGraph g = builders::dgx1();
  EXPECT_TRUE(g.validate().is_ok());
  EXPECT_EQ(g.gpu_count(), 8);
  EXPECT_EQ(g.sockets_of_machine(0), 2);
  // Quads on sockets.
  for (int gpu = 0; gpu < 4; ++gpu) EXPECT_EQ(g.socket_of_gpu(gpu), 0);
  for (int gpu = 4; gpu < 8; ++gpu) EXPECT_EQ(g.socket_of_gpu(gpu), 1);
}

TEST(Dgx1Test, HybridCubeMeshNvlinkDegree) {
  const TopologyGraph g = builders::dgx1();
  // Each GPU has exactly 4 NVLink edges (P100).
  std::vector<int> degree(8, 0);
  for (const Link& link : g.links()) {
    if (link.kind != LinkKind::kNvlink) continue;
    ++degree[static_cast<size_t>(g.node(link.a).gpu_index)];
    ++degree[static_cast<size_t>(g.node(link.b).gpu_index)];
  }
  for (int gpu = 0; gpu < 8; ++gpu) EXPECT_EQ(degree[static_cast<size_t>(gpu)], 4);
}

TEST(Dgx1Test, IntraQuadIsDirectNvlink) {
  const TopologyGraph g = builders::dgx1();
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(g.gpu_distance(i, j), 1.0);
      EXPECT_TRUE(g.gpu_path(i, j).peer_to_peer);
    }
  }
}

TEST(Dgx1Test, CrossQuadNonNeighborRoutesViaHost) {
  const TopologyGraph g = builders::dgx1();
  // GPU0 and GPU5 are not directly linked and GPUs cannot forward
  // traffic, so the route goes over the PCI-e switches and the SMP bus
  // (Section 1's GPU1->GPU5 example):
  // 0 -> sw (1) -> S0 (10) -> M (20) -> S1 (20) -> sw (10) -> 5 (1) = 62.
  EXPECT_DOUBLE_EQ(g.gpu_distance(0, 5), 62.0);
  EXPECT_FALSE(g.gpu_path(0, 5).peer_to_peer);
  EXPECT_DOUBLE_EQ(g.gpu_path(0, 5).bottleneck_gbps, 16.0);
  // Direct cross link stays NVLink.
  EXPECT_DOUBLE_EQ(g.gpu_distance(0, 4), 1.0);
  EXPECT_TRUE(g.gpu_path(0, 4).peer_to_peer);
}

TEST(ClusterBuilderTest, MultiMachineShape) {
  const TopologyGraph g =
      builders::cluster(3, MachineShape::kPower8Minsky);
  EXPECT_TRUE(g.validate().is_ok());
  EXPECT_EQ(g.gpu_count(), 12);
  EXPECT_EQ(g.machine_count(), 3);
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(g.gpus_of_machine(m).size(), 4u);
  }
  // Machine-major global indexing.
  EXPECT_EQ(g.machine_of_gpu(0), 0);
  EXPECT_EQ(g.machine_of_gpu(4), 1);
  EXPECT_EQ(g.machine_of_gpu(11), 2);
}

TEST(ClusterBuilderTest, CrossMachineDistanceDominates) {
  const TopologyGraph g =
      builders::cluster(2, MachineShape::kPower8Minsky);
  // Within machine: 1 (same socket) / 42 (cross socket).
  EXPECT_DOUBLE_EQ(g.gpu_distance(0, 1), 1.0);
  // Across machines: 1 + 20 + 100 + 100 + 20 + 1 = 242.
  EXPECT_DOUBLE_EQ(g.gpu_distance(0, 4), 242.0);
  EXPECT_FALSE(g.gpu_path(0, 4).peer_to_peer);
  // Network bottleneck.
  EXPECT_DOUBLE_EQ(g.gpu_path(0, 4).bottleneck_gbps, 12.5);
}

TEST(ClusterBuilderTest, SingleMachineClusterHasNoNetworkNode) {
  const TopologyGraph g =
      builders::cluster(1, MachineShape::kPower8Minsky);
  for (const Node& node : g.nodes()) {
    EXPECT_NE(node.kind, NodeKind::kNetwork);
  }
}

TEST(ClusterBuilderTest, GpusPerMachine) {
  EXPECT_EQ(builders::gpus_per_machine(MachineShape::kPower8Minsky), 4);
  EXPECT_EQ(builders::gpus_per_machine(MachineShape::kPower8Pcie), 4);
  EXPECT_EQ(builders::gpus_per_machine(MachineShape::kDgx1), 8);
}

TEST(ValidateTest, RejectsBadGraphs) {
  TopologyGraph empty;
  EXPECT_FALSE(empty.validate().is_ok());

  TopologyGraph disconnected;
  disconnected.add_node({NodeKind::kMachine, "M0", 0, -1, -1, -1});
  disconnected.add_node({NodeKind::kMachine, "M1", 1, -1, -1, -1});
  EXPECT_FALSE(disconnected.validate().is_ok());

  TopologyGraph bad_weight;
  const NodeId a = bad_weight.add_node({NodeKind::kMachine, "M0", 0, -1, -1, -1});
  const NodeId b = bad_weight.add_node({NodeKind::kSocket, "S0", 0, 0, -1, -1});
  bad_weight.add_link({a, b, LinkKind::kSmpBus, -1.0, 32.0, 1});
  EXPECT_FALSE(bad_weight.validate().is_ok());
}

TEST(ShortestPathTest, MatchesBruteForceOnMinsky) {
  const TopologyGraph g = builders::power8_minsky();
  // Spot-check the arbitrary-node API against known structure: socket to
  // opposite GPU = 20 + 20 + 1.
  NodeId socket0 = kInvalidNode;
  for (NodeId id = 0; id < g.node_count(); ++id) {
    if (g.node(id).kind == NodeKind::kSocket && g.node(id).socket == 0) {
      socket0 = id;
      break;
    }
  }
  ASSERT_NE(socket0, kInvalidNode);
  const GpuPath path = g.shortest_path(socket0, g.gpu_node(3));
  EXPECT_DOUBLE_EQ(path.distance, 41.0);
  EXPECT_EQ(path.links.size(), 3u);
}

TEST(HierarchicalPathCacheTest, MatchesDirectDijkstraAtScale) {
  // Above 64 GPUs the graph switches to the hierarchical cache
  // (per-machine tables + root routes); distances and paths must be
  // identical to a direct shortest-path computation.
  const TopologyGraph g =
      builders::cluster(20, MachineShape::kPower8Minsky);  // 80 GPUs
  ASSERT_GT(g.gpu_count(), 64);
  // Spot-check a deterministic sample of pairs, intra- and cross-machine.
  for (int a = 0; a < g.gpu_count(); a += 7) {
    for (int b = 1; b < g.gpu_count(); b += 13) {
      if (a == b) continue;
      const GpuPath direct = g.shortest_path(g.gpu_node(a), g.gpu_node(b));
      EXPECT_DOUBLE_EQ(g.gpu_distance(a, b), direct.distance)
          << "pair " << a << "," << b;
      const GpuPath& cached = g.gpu_path(a, b);
      EXPECT_DOUBLE_EQ(cached.distance, direct.distance);
      EXPECT_DOUBLE_EQ(cached.bottleneck_gbps, direct.bottleneck_gbps);
      EXPECT_EQ(cached.peer_to_peer, direct.peer_to_peer);
      EXPECT_EQ(cached.links.size(), direct.links.size());
    }
  }
  // Diameter equals the brute-force maximum over the sample structure:
  // cross-machine worst case is 242 on this homogeneous cluster.
  EXPECT_DOUBLE_EQ(g.max_gpu_distance(), 242.0);
}

TEST(HierarchicalPathCacheTest, IntraMachinePathsEqualShortestPathOnMixedCluster) {
  // Five each of Minsky, DGX-1 and PCI-e machines: 80 GPUs, hierarchical
  // tables over three machine shapes. Every intra-machine gpu_path is the
  // dense table's slot and must equal a direct search bit for bit.
  std::vector<MachineShape> shapes;
  for (int i = 0; i < 5; ++i) {
    shapes.insert(shapes.end(), {MachineShape::kPower8Minsky,
                                 MachineShape::kDgx1,
                                 MachineShape::kPower8Pcie});
  }
  const TopologyGraph g = builders::mixed_cluster(shapes);
  ASSERT_EQ(g.gpu_count(), 80);
  int pairs = 0;
  for (int machine = 0; machine < g.machine_count(); ++machine) {
    for (const int a : g.gpus_of_machine(machine)) {
      for (const int b : g.gpus_of_machine(machine)) {
        if (a == b) continue;
        const GpuPath direct = g.shortest_path(g.gpu_node(a), g.gpu_node(b));
        const GpuPath& cached = g.gpu_path(a, b);
        EXPECT_EQ(cached.links, direct.links) << "pair " << a << "," << b;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(cached.distance),
                  std::bit_cast<std::uint64_t>(direct.distance))
            << "pair " << a << "," << b;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(cached.bottleneck_gbps),
                  std::bit_cast<std::uint64_t>(direct.bottleneck_gbps))
            << "pair " << a << "," << b;
        EXPECT_EQ(cached.peer_to_peer, direct.peer_to_peer)
            << "pair " << a << "," << b;
        ++pairs;
      }
    }
  }
  EXPECT_EQ(pairs, 5 * (4 * 3 + 8 * 7 + 4 * 3));
#if GTS_DCHECKS_ENABLED
  // A GPU paired with itself has no route: a checked error.
  const check::ScopedFailureMode mode(check::FailureMode::kThrow);
  EXPECT_THROW(static_cast<void>(g.gpu_path(5, 5)), check::CheckFailedError);
#endif
}

TEST(HierarchicalPathCacheTest, CrossMachinePathsTraverseTheRoot) {
  const TopologyGraph g =
      builders::cluster(20, MachineShape::kPower8Minsky);
  const GpuPath& path = g.gpu_path(0, 79);
  EXPECT_FALSE(path.peer_to_peer);
  bool crosses_network = false;
  for (const LinkId link : path.links) {
    if (g.link(link).kind == LinkKind::kNetwork) crosses_network = true;
  }
  EXPECT_TRUE(crosses_network);
  EXPECT_DOUBLE_EQ(path.bottleneck_gbps, 12.5);
}

// ------------------------------------------------------ pinned digests ---
//
// Committed FNV-1a digests (tests/decision_digest.hpp) of every distance
// and path property the schedulers and the performance model read. They
// pin the path tables bit for bit, so a change to how the tables or the
// searches behind them are built must reproduce them exactly.

using testing_digest::Fnv1a;
using testing_digest::hex;

void mix_path(Fnv1a& fnv, const GpuPath& path) {
  fnv.mix_double(path.distance);
  fnv.mix_double(path.bottleneck_gbps);
  fnv.mix(path.peer_to_peer ? 1U : 0U);
  fnv.mix(path.links.size());
  for (const LinkId link : path.links) {
    fnv.mix(static_cast<std::uint64_t>(link));
  }
}

/// Every gpu_distance, the diameter, and gpu_path for every intra-machine
/// pair plus a stride of cross-machine pairs.
std::uint64_t path_table_digest(const TopologyGraph& g) {
  Fnv1a fnv;
  const int n = g.gpu_count();
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) fnv.mix_double(g.gpu_distance(a, b));
  }
  fnv.mix_double(g.max_gpu_distance());
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b || !g.same_machine(a, b)) continue;
      mix_path(fnv, g.gpu_path(a, b));
    }
  }
  for (int a = 0; a < n; a += 7) {
    for (int b = 3; b < n; b += 29) {
      if (g.same_machine(a, b)) continue;
      mix_path(fnv, g.gpu_path(a, b));
    }
  }
  return fnv.value();
}

/// The node pairs the search digests route: every GPU to the network root
/// (if any), every node of machine 0 to every GPU of machine 0, and a
/// stride of GPU pairs across the whole graph.
std::vector<std::pair<NodeId, NodeId>> search_pairs(const TopologyGraph& g) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  NodeId root = kInvalidNode;
  for (NodeId id = 0; id < g.node_count(); ++id) {
    if (g.node(id).kind == NodeKind::kNetwork) root = id;
  }
  for (int gpu = 0; root != kInvalidNode && gpu < g.gpu_count(); ++gpu) {
    pairs.emplace_back(g.gpu_node(gpu), root);
  }
  for (NodeId id = 0; id < g.node_count(); ++id) {
    if (g.node(id).machine != 0) continue;
    for (int gpu = 0; gpu < g.gpu_count(); ++gpu) {
      if (g.node(g.gpu_node(gpu)).machine == 0) {
        pairs.emplace_back(id, g.gpu_node(gpu));
      }
    }
  }
  const int stride = std::max(1, g.gpu_count() / 16);
  for (int a = 0; a < g.gpu_count(); a += stride) {
    for (int b = stride / 2; b < g.gpu_count(); b += stride) {
      pairs.emplace_back(g.gpu_node(a), g.gpu_node(b));
    }
  }
  return pairs;
}

std::uint64_t search_digest(const TopologyGraph& g) {
  Fnv1a fnv;
  for (const auto& [from, to] : search_pairs(g)) {
    mix_path(fnv, g.shortest_path(from, to));
  }
  return fnv.value();
}

// 200 Minsky machines, 800 GPUs: hierarchical path tables.
constexpr std::uint64_t kHierarchicalTableDigest = 0xe790f3365507f9e2ULL;
constexpr std::uint64_t kHierarchicalSearchDigest = 0x42baa06a84b7e2efULL;
// One Minsky, one DGX-1 and one PCI-e machine, 16 GPUs: dense tables.
constexpr std::uint64_t kDenseTableDigest = 0xc7e6a2bb96b29af6ULL;
constexpr std::uint64_t kDenseSearchDigest = 0xb9b51f2f93dc45f7ULL;

TopologyGraph hierarchical_graph() {
  return builders::cluster(200, MachineShape::kPower8Minsky);
}

TopologyGraph dense_graph() {
  return builders::mixed_cluster({MachineShape::kPower8Minsky,
                                  MachineShape::kDgx1,
                                  MachineShape::kPower8Pcie});
}

TEST(PathDigestTest, HierarchicalTablesArePinned) {
  const TopologyGraph g = hierarchical_graph();
  ASSERT_EQ(g.gpu_count(), 800);
  EXPECT_EQ(hex(path_table_digest(g)), hex(kHierarchicalTableDigest));
  EXPECT_EQ(hex(search_digest(g)), hex(kHierarchicalSearchDigest));
}

TEST(PathDigestTest, DenseTablesArePinned) {
  const TopologyGraph g = dense_graph();
  ASSERT_EQ(g.gpu_count(), 16);
  EXPECT_EQ(hex(path_table_digest(g)), hex(kDenseTableDigest));
  EXPECT_EQ(hex(search_digest(g)), hex(kDenseSearchDigest));
}

TEST(PathDigestTest, ConcurrentAndInterleavedSearchesMatchThePins) {
  const TopologyGraph big = hierarchical_graph();
  const TopologyGraph small = dense_graph();
  ASSERT_NE(big.node_count(), small.node_count());
  const auto big_pairs = search_pairs(big);
  const auto small_pairs = search_pairs(small);

  // Four threads search one shared graph. Each thread alternates between
  // the two graphs, starting from the smaller one so a search meets a
  // larger graph than the one before it, and then a smaller one again.
  constexpr int kThreads = 4;
  std::vector<std::uint64_t> big_digests(kThreads);
  std::vector<std::uint64_t> small_digests(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Fnv1a big_fnv;
      Fnv1a small_fnv;
      const size_t rounds = std::max(big_pairs.size(), small_pairs.size());
      for (size_t i = 0; i < rounds; ++i) {
        if (i < small_pairs.size()) {
          mix_path(small_fnv, small.shortest_path(small_pairs[i].first,
                                                  small_pairs[i].second));
        }
        if (i < big_pairs.size()) {
          mix_path(big_fnv,
                   big.shortest_path(big_pairs[i].first, big_pairs[i].second));
        }
      }
      big_digests[static_cast<size_t>(t)] = big_fnv.value();
      small_digests[static_cast<size_t>(t)] = small_fnv.value();
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(hex(big_digests[static_cast<size_t>(t)]),
              hex(kHierarchicalSearchDigest))
        << "thread " << t;
    EXPECT_EQ(hex(small_digests[static_cast<size_t>(t)]),
              hex(kDenseSearchDigest))
        << "thread " << t;
  }
}

TEST(DescribeTest, MentionsKeyFacts) {
  const TopologyGraph g = builders::power8_minsky();
  const std::string text = g.describe();
  EXPECT_NE(text.find("4 GPUs"), std::string::npos);
  EXPECT_NE(text.find("nvlink"), std::string::npos);
  EXPECT_NE(text.find("GPU distance matrix"), std::string::npos);
}

TEST(CustomWeightsTest, Propagate) {
  builders::MachineShapeOptions options;
  options.weights.gpu_adjacent = 2.0;
  options.bandwidth.nvlink_lane_gbps = 25.0;
  const TopologyGraph g = builders::power8_minsky(options);
  EXPECT_DOUBLE_EQ(g.gpu_distance(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.gpu_path(0, 1).bottleneck_gbps, 50.0);
}

// --- machine classes ---------------------------------------------------------

/// `base` with the machines of `extra` appended under `base`'s network
/// root, in `extra`'s node and link order.
TopologyGraph join(const TopologyGraph& base, const TopologyGraph& extra) {
  TopologyGraph joined = base;
  NodeId root = kInvalidNode;
  for (NodeId id = 0; id < base.node_count(); ++id) {
    if (base.node(id).kind == NodeKind::kNetwork) root = id;
  }
  std::vector<NodeId> map(static_cast<size_t>(extra.node_count()), root);
  for (NodeId id = 0; id < extra.node_count(); ++id) {
    Node node = extra.node(id);
    if (node.kind == NodeKind::kNetwork) continue;
    node.machine += base.machine_count();
    map[static_cast<size_t>(id)] = joined.add_node(node);
  }
  for (Link link : extra.links()) {
    link.a = map[static_cast<size_t>(link.a)];
    link.b = map[static_cast<size_t>(link.b)];
    joined.add_link(link);
  }
  return joined;
}

std::vector<int> classes_of(const TopologyGraph& g) {
  std::vector<int> classes;
  for (int m = 0; m < g.machine_count(); ++m) {
    classes.push_back(g.machine_class(m));
  }
  return classes;
}

TEST(MachineClassTest, HomogeneousClusterIsOneClass) {
  for (const MachineShape shape :
       {MachineShape::kPower8Minsky, MachineShape::kPower8Pcie,
        MachineShape::kDgx1}) {
    const TopologyGraph g = builders::cluster(6, shape);
    EXPECT_EQ(classes_of(g), std::vector<int>(6, 0));
  }
}

TEST(MachineClassTest, MixedClusterHasOneClassPerShape) {
  const TopologyGraph g = builders::mixed_cluster(
      {MachineShape::kPower8Minsky, MachineShape::kDgx1,
       MachineShape::kPower8Pcie, MachineShape::kPower8Minsky,
       MachineShape::kDgx1, MachineShape::kPower8Pcie});
  EXPECT_EQ(classes_of(g), (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(MachineClassTest, LinkParametersSeparateClasses) {
  const TopologyGraph base = builders::cluster(2, MachineShape::kPower8Minsky);
  builders::MachineShapeOptions lanes;
  lanes.bandwidth.nvlink_lane_gbps = 25.0;
  builders::MachineShapeOptions uplink;
  uplink.bandwidth.network_gbps = 25.0;
  builders::MachineShapeOptions socket_weight;
  socket_weight.weights.socket_uplink = 30.0;
  builders::MachineShapeOptions gpu_weight;
  gpu_weight.weights.gpu_adjacent = 2.0;
  for (const builders::MachineShapeOptions& options :
       {lanes, uplink, socket_weight, gpu_weight}) {
    const TopologyGraph g = join(
        base, builders::cluster(2, MachineShape::kPower8Minsky, options));
    ASSERT_TRUE(g.validate().is_ok());
    EXPECT_EQ(classes_of(g), (std::vector<int>{0, 0, 1, 1}));
  }
  // The same parameters through the same join stay one class.
  EXPECT_EQ(classes_of(join(base, base)), std::vector<int>(4, 0));
}

// A link leaving a machine other than its one uplink lets paths depend on
// the rest of the cluster, so such a machine shares a class with nobody.
TEST(MachineClassTest, ExtraOutsideLinksMakeSingletons) {
  TopologyGraph g = builders::cluster(4, MachineShape::kPower8Minsky);
  g.add_link({g.gpu_node(0), g.gpu_node(4), LinkKind::kNvlink, 1.0, 20.0, 1});
  const std::vector<int> classes = classes_of(g);
  EXPECT_EQ(classes[2], classes[3]);
  EXPECT_NE(classes[0], classes[1]);
  EXPECT_NE(classes[0], classes[2]);
  EXPECT_NE(classes[1], classes[2]);
}

// links_of_machine lists every link a placement inside a machine can
// share. Machine 0's sockets reach each other more cheaply through
// machine 1 than through their own machine node, so the route between
// its two GPUs crosses a link inside machine 1. Machine 0 is a class of
// its own, and that link must be among its links.
TEST(MachineClassTest, SingletonLinksIncludeRoutesThroughOtherMachines) {
  TopologyGraph g;
  const NodeId root = g.add_node({NodeKind::kNetwork, "net", -1, -1, -1, -1});
  std::vector<std::vector<NodeId>> sockets(2);
  for (int m = 0; m < 2; ++m) {
    const std::string name = std::string("m") + std::to_string(m);
    const NodeId machine =
        g.add_node({NodeKind::kMachine, name, m, -1, -1, -1});
    g.add_link({machine, root, LinkKind::kNetwork, 100.0, 10.0, 1});
    for (int s = 0; s < 2; ++s) {
      const NodeId socket = g.add_node(
          {NodeKind::kSocket, name + "s" + std::to_string(s), m, s, -1, -1});
      const NodeId gpu = g.add_node(
          {NodeKind::kGpu, name + "g" + std::to_string(s), m, s, -1, s});
      g.add_link({gpu, socket, LinkKind::kPcie, 1.0, 16.0, 16});
      g.add_link({socket, machine, LinkKind::kSmpBus, 20.0, 32.0, 1});
      sockets[static_cast<size_t>(m)].push_back(socket);
    }
  }
  const LinkId inside_m1 = g.add_link({sockets[1][0], sockets[1][1],
                                       LinkKind::kSmpBus, 1.0, 32.0, 1});
  g.add_link({sockets[0][0], sockets[1][0], LinkKind::kSmpBus, 1.0, 32.0, 1});
  g.add_link({sockets[1][1], sockets[0][1], LinkKind::kSmpBus, 1.0, 32.0, 1});
  ASSERT_TRUE(g.validate().is_ok());

  const std::vector<int>& gpus = g.gpus_of_machine(0);
  const GpuPath route = g.shortest_path(g.gpu_node(gpus[0]),
                                        g.gpu_node(gpus[1]));
  ASSERT_NE(std::find(route.links.begin(), route.links.end(), inside_m1),
            route.links.end());
  const std::span<const LinkId> links = g.links_of_machine(0);
  for (const LinkId link : route.links) {
    EXPECT_NE(std::find(links.begin(), links.end(), link), links.end())
        << "link " << link;
  }
  EXPECT_NE(g.machine_class(0), g.machine_class(1));
}

TEST(MachineClassTest, CellsClassifyLikeTheirSourceMachines) {
  const TopologyGraph cluster = builders::mixed_cluster(
      {MachineShape::kDgx1, MachineShape::kPower8Minsky,
       MachineShape::kPower8Pcie, MachineShape::kPower8Minsky,
       MachineShape::kDgx1, MachineShape::kPower8Minsky,
       MachineShape::kPower8Pcie, MachineShape::kDgx1});
  for (const auto& [begin, end] : {std::pair{0, 8}, std::pair{1, 6},
                                   std::pair{3, 8}}) {
    const shard::CellTopology cell = shard::extract_cell(cluster, begin, end);
    for (int a = 0; a < end - begin; ++a) {
      for (int b = 0; b < end - begin; ++b) {
        EXPECT_EQ(cell.graph.machine_class(a) == cell.graph.machine_class(b),
                  cluster.machine_class(begin + a) ==
                      cluster.machine_class(begin + b))
            << "cell [" << begin << ", " << end << ") machines " << a
            << ", " << b;
      }
    }
  }
}

}  // namespace
}  // namespace gts::topo
