// Physical system topology graph (Section 4.1.2 of the paper).
//
// The graph is hierarchical: a network root, machines, sockets, optional
// PCI-e switch levels, and GPUs as leaves. GPUs may additionally be linked
// directly to each other (NVLink peer-to-peer edges). Edge weights are
// qualitative distances — the only constraint the paper imposes is that
// higher levels carry larger weights (Fig. 7 uses 1 for GPU-adjacent edges,
// 10 for switch uplinks, 20 for socket uplinks, and larger values towards
// the network root).
//
// Besides the qualitative weight used by the mapping algorithm, every link
// carries a peak unidirectional bandwidth in GB/s; the performance model
// (src/perf) uses the bottleneck bandwidth along the routing path of a GPU
// pair, and the cluster simulator (src/cluster) accounts per-link flows on
// those paths to model contention.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/expected.hpp"
#include "util/instance_tag.hpp"

namespace gts::topo {

using NodeId = int;
using LinkId = int;
inline constexpr NodeId kInvalidNode = -1;
inline constexpr LinkId kInvalidLink = -1;

enum class NodeKind : std::uint8_t {
  kNetwork,  // cluster interconnect root
  kMachine,
  kSocket,
  kSwitch,  // PCI-e switch
  kGpu,
};

enum class LinkKind : std::uint8_t {
  kNvlink,
  kPcie,
  kSmpBus,   // inter-socket bus (X-bus on Power8, QPI on x86)
  kNetwork,  // machine-to-cluster interconnect
};

std::string_view to_string(NodeKind kind) noexcept;
std::string_view to_string(LinkKind kind) noexcept;

/// Qualitative level weights matching Fig. 7.
struct LevelWeights {
  double gpu_adjacent = 1.0;   // GPU<->GPU, GPU<->socket, GPU<->switch
  double switch_uplink = 10.0; // switch<->socket
  double socket_uplink = 20.0; // socket<->machine
  double machine_uplink = 100.0;  // machine<->network
};

struct Node {
  NodeKind kind = NodeKind::kGpu;
  std::string name;
  int machine = -1;      // machine index, -1 for the network root
  int socket = -1;       // socket index within machine, -1 above socket level
  int gpu_index = -1;    // global GPU index if kind == kGpu, else -1
  int local_gpu = -1;    // GPU index within its machine, else -1
};

struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  LinkKind kind = LinkKind::kPcie;
  double weight = 1.0;          // qualitative distance contribution
  double bandwidth_gbps = 0.0;  // peak unidirectional bandwidth
  int lanes = 1;                // e.g. NVLink lane count ("NV2" = 2)
};

/// A routed GPU-to-GPU path with the properties the schedulers and the
/// performance model consume.
struct GpuPath {
  double distance = 0.0;        // sum of link weights along min-weight path
  double bottleneck_gbps = 0.0; // min link bandwidth along the path
  bool peer_to_peer = false;    // true iff no socket/machine/network node is
                                // traversed (direct or switch-only route)
  std::vector<LinkId> links;    // links along the path, in order
};

class TopologyGraph {
 public:
  // --- construction -------------------------------------------------------
  NodeId add_node(Node node);
  LinkId add_link(Link link);

  /// Checks structural invariants: connectivity, positive weights and
  /// bandwidths, GPU indices dense, exactly one network root if any
  /// machine-level node exists.
  util::Status validate() const;

  // --- basic accessors -----------------------------------------------------
  int node_count() const noexcept { return static_cast<int>(nodes_.size()); }
  int link_count() const noexcept { return static_cast<int>(links_.size()); }
  const Node& node(NodeId id) const { return nodes_.at(static_cast<size_t>(id)); }
  const Link& link(LinkId id) const { return links_.at(static_cast<size_t>(id)); }
  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  const std::vector<Link>& links() const noexcept { return links_; }

  struct Neighbor {
    NodeId node;
    LinkId link;
  };
  const std::vector<Neighbor>& neighbors(NodeId id) const {
    return adjacency_.at(static_cast<size_t>(id));
  }

  // --- GPU-level structure -------------------------------------------------
  int gpu_count() const noexcept { return static_cast<int>(gpu_nodes_.size()); }
  int machine_count() const noexcept { return machine_count_; }
  /// Node id of the GPU with global index `gpu` (0-based, dense).
  NodeId gpu_node(int gpu) const { return gpu_nodes_.at(static_cast<size_t>(gpu)); }
  /// Machine index of a GPU (flat-array lookup; hot on the decision path).
  int machine_of_gpu(int gpu) const {
    ensure_structure();
    return gpu_machine_[static_cast<size_t>(gpu)];
  }
  /// Socket index (within its machine) of a GPU.
  int socket_of_gpu(int gpu) const {
    ensure_structure();
    return gpu_socket_[static_cast<size_t>(gpu)];
  }
  bool same_socket(int gpu_a, int gpu_b) const {
    return machine_of_gpu(gpu_a) == machine_of_gpu(gpu_b) &&
           socket_of_gpu(gpu_a) == socket_of_gpu(gpu_b);
  }
  bool same_machine(int gpu_a, int gpu_b) const {
    return machine_of_gpu(gpu_a) == machine_of_gpu(gpu_b);
  }
  /// Global GPU indices on machine `machine` (cached; O(1) amortized).
  const std::vector<int>& gpus_of_machine(int machine) const;
  /// Global GPU indices on socket `socket` of machine `machine` (cached).
  const std::vector<int>& gpus_of_socket(int machine, int socket) const;
  /// All socket GPU lists of `machine` at once (index = socket). Lets the
  /// utility loops hoist one lookup per machine instead of one per socket.
  const std::vector<std::vector<int>>& socket_gpu_lists(int machine) const;
  /// Number of sockets on `machine` (cached).
  int sockets_of_machine(int machine) const;
  /// Position of `gpu` in gpus_of_machine(machine_of_gpu(gpu)).
  int local_gpu_of(int gpu) const {
    ensure_structure();
    return gpu_local_index_[static_cast<size_t>(gpu)];
  }
  /// Shape class of `machine` (dense ids in order of first appearance).
  /// Two machines share a class iff their subtrees are identical up to a
  /// shift of node, GPU and link ids that keeps their order: node kinds,
  /// sockets and local GPU indices in node-id order, every internal link
  /// (endpoints, kind, weight, bandwidth, lanes) in link-id order, and
  /// the single uplink to a network node. A machine linked to anything
  /// else outside its subtree is a class of its own. Every intra-machine
  /// path, distance and socket list of one class member is then another
  /// member's translated by local GPU index.
  int machine_class(int machine) const {
    ensure_structure();
    return machine_class_.at(static_cast<size_t>(machine));
  }
  /// Links whose flows a placement inside `machine` can meet: every link
  /// with an endpoint in its subtree, plus, for a machine that is a class
  /// of its own, every link on a route between two of its GPUs (its
  /// routes may leave the subtree). A job with no GPU on the machine
  /// loads one of these only by routing through it.
  std::span<const LinkId> links_of_machine(int machine) const {
    ensure_structure();
    const size_t begin = machine_link_begin_.at(static_cast<size_t>(machine));
    return {machine_link_ids_.data() + begin,
            machine_link_begin_.at(static_cast<size_t>(machine) + 1) - begin};
  }

  /// Process-unique tag of the graph's current contents, renewed on
  /// construction, copy and every add_node/add_link. Caches of results
  /// derived from the graph key on it instead of on its address.
  std::uint64_t instance_tag() const noexcept { return tag_.value(); }

  // --- shortest paths ------------------------------------------------------
  /// Min-weight path between two arbitrary nodes (Dijkstra). Ties are broken
  /// deterministically by node id. The search state is a per-thread scratch
  /// that is reset only where the previous search wrote, so a call costs
  /// the nodes it reaches, not node_count(); concurrent calls on one graph
  /// are safe (it reads no lazily built cache).
  GpuPath shortest_path(NodeId from, NodeId to) const;

  /// Cached min-weight path between two GPUs by global index.
  ///
  /// Storage is hierarchical above 64 GPUs: intra-machine pairs are dense
  /// per machine, and cross-machine paths are synthesized from each GPU's
  /// cached route to the network root (exact, because inter-machine
  /// traffic always crosses the root in tree-shaped clusters) and cached
  /// on demand. This keeps a 1000-machine cluster at O(G) memory instead
  /// of an O(G^2) all-pairs table.
  const GpuPath& gpu_path(int gpu_a, int gpu_b) const;

  /// Distance only. Served from flat double tables (dense n^2 for small
  /// graphs; per-machine dense blocks + per-GPU root distances above the
  /// dense limit) — no path object or hash lookup on this, the single
  /// hottest call of the decision path.
  double gpu_distance(int gpu_a, int gpu_b) const;
  /// Largest pairwise GPU distance in the graph; used to normalize
  /// communication cost against the worst case (Eq. 1).
  double max_gpu_distance() const;

  /// Pre-builds the lazily materialized structure and distance tables on
  /// the calling thread. The tables are `mutable` and built on first
  /// const access, which is fine single-threaded but a data race when
  /// concurrent readers trigger the first build. builders::make_cluster
  /// and the shard cells call this before handing the graph out, after
  /// which gpu_distance / max_gpu_distance / the structure lookups are
  /// pure reads. gpu_path stays excluded: its hierarchical-mode
  /// cross-machine memo fills on demand, so it must not be called from
  /// concurrent readers of one graph (the decision path only uses
  /// gpu_distance).
  void warm_caches() const {
    ensure_structure();
    ensure_paths();
  }

  /// Dumps a human-readable multi-line description (levels, links, paths).
  std::string describe() const;

 private:
  void ensure_paths() const;
  void ensure_structure() const;
  void build_machine_classes() const;

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<Neighbor>> adjacency_;
  std::vector<NodeId> gpu_nodes_;
  int machine_count_ = 0;

  // Path caches, built lazily, invalidated by mutation. Dense all-pairs
  // for small graphs; hierarchical (per-machine dense + per-GPU root
  // routes) for large clusters.
  mutable bool paths_valid_ = false;
  mutable bool hierarchical_paths_ = false;
  mutable std::vector<GpuPath> gpu_paths_;  // dense mode: gpu_count^2
  mutable std::unordered_map<std::uint64_t, GpuPath> intra_paths_;
  mutable std::unordered_map<std::uint64_t, GpuPath> cross_cache_;
  mutable std::vector<GpuPath> root_paths_;  // per GPU: route to the root
  mutable double max_gpu_distance_ = 0.0;

  // Flat distance tables mirroring the path caches so gpu_distance never
  // touches a GpuPath object or hash map. Dense mode: gpu_count^2 doubles.
  // Hierarchical mode: per-GPU root distance plus one dense block per
  // machine (indexed by within-machine local GPU index).
  mutable std::vector<double> gpu_dist_;
  mutable std::vector<double> root_dist_;
  mutable std::vector<double> intra_dist_;
  mutable std::vector<int> machine_dist_offset_;

  // Machine/socket structure caches (derived from nodes, invalidated by
  // mutation): per-GPU flat machine/socket/local-index arrays,
  // per-machine GPU and socket lists, and per-machine shape classes.
  mutable bool structure_valid_ = false;
  mutable std::vector<std::vector<int>> machine_gpus_;
  mutable std::vector<int> machine_sockets_;
  mutable std::vector<std::vector<std::vector<int>>> machine_socket_gpus_;
  mutable std::vector<int> gpu_machine_;
  mutable std::vector<int> gpu_socket_;
  mutable std::vector<int> gpu_local_index_;
  mutable std::vector<int> machine_class_;
  // links_of_machine(m): machine_link_ids_[machine_link_begin_[m] ..
  // machine_link_begin_[m + 1]).
  mutable std::vector<size_t> machine_link_begin_;
  mutable std::vector<LinkId> machine_link_ids_;

  util::InstanceTag tag_;
};

}  // namespace gts::topo
