#include "topo/topology.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <queue>
#include <sstream>
#include <utility>

#include "check/check.hpp"
#include "util/strings.hpp"

namespace gts::topo {

std::string_view to_string(NodeKind kind) noexcept {
  switch (kind) {
    case NodeKind::kNetwork:
      return "network";
    case NodeKind::kMachine:
      return "machine";
    case NodeKind::kSocket:
      return "socket";
    case NodeKind::kSwitch:
      return "switch";
    case NodeKind::kGpu:
      return "gpu";
  }
  return "?";
}

std::string_view to_string(LinkKind kind) noexcept {
  switch (kind) {
    case LinkKind::kNvlink:
      return "nvlink";
    case LinkKind::kPcie:
      return "pcie";
    case LinkKind::kSmpBus:
      return "smp-bus";
    case LinkKind::kNetwork:
      return "network";
  }
  return "?";
}

NodeId TopologyGraph::add_node(Node node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  if (node.kind == NodeKind::kGpu) {
    node.gpu_index = static_cast<int>(gpu_nodes_.size());
    gpu_nodes_.push_back(id);
  }
  if (node.kind == NodeKind::kMachine) {
    machine_count_ = std::max(machine_count_, node.machine + 1);
  }
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  paths_valid_ = false;
  structure_valid_ = false;
  tag_.renew();
  return id;
}

LinkId TopologyGraph::add_link(Link link) {
  const LinkId id = static_cast<LinkId>(links_.size());
  adjacency_.at(static_cast<size_t>(link.a)).push_back({link.b, id});
  adjacency_.at(static_cast<size_t>(link.b)).push_back({link.a, id});
  links_.push_back(link);
  paths_valid_ = false;
  structure_valid_ = false;  // machine classes describe links
  tag_.renew();
  return id;
}

util::Status TopologyGraph::validate() const {
  if (nodes_.empty()) return util::Error{"topology: empty graph"};
  for (const Link& link : links_) {
    if (link.a < 0 || link.a >= node_count() || link.b < 0 ||
        link.b >= node_count()) {
      return util::Error{"topology: link endpoint out of range"};
    }
    if (link.a == link.b) return util::Error{"topology: self-loop link"};
    if (link.weight <= 0.0) {
      return util::Error{"topology: non-positive link weight"};
    }
    if (link.bandwidth_gbps <= 0.0) {
      return util::Error{"topology: non-positive link bandwidth"};
    }
  }
  // Connectivity via BFS from node 0.
  std::vector<bool> seen(nodes_.size(), false);
  std::queue<NodeId> frontier;
  frontier.push(0);
  seen[0] = true;
  int visited = 0;
  while (!frontier.empty()) {
    const NodeId current = frontier.front();
    frontier.pop();
    ++visited;
    for (const Neighbor& n : adjacency_[static_cast<size_t>(current)]) {
      if (!seen[static_cast<size_t>(n.node)]) {
        seen[static_cast<size_t>(n.node)] = true;
        frontier.push(n.node);
      }
    }
  }
  if (visited != node_count()) {
    return util::Error{util::fmt("topology: graph not connected ({} of {})",
                                 visited, node_count())};
  }
  // GPU indices must be dense 0..gpu_count-1 (guaranteed by add_node, but
  // revalidated to catch manual Node tampering).
  for (int g = 0; g < gpu_count(); ++g) {
    const Node& node = nodes_[static_cast<size_t>(gpu_nodes_[static_cast<size_t>(g)])];
    if (node.gpu_index != g) {
      return util::Error{"topology: GPU index not dense"};
    }
    if (node.machine < 0 || node.socket < 0) {
      return util::Error{util::fmt("topology: GPU {} missing machine/socket", g)};
    }
  }
  return util::Status::ok();
}

void TopologyGraph::ensure_structure() const {
  if (structure_valid_) return;
  const size_t machines = static_cast<size_t>(std::max(machine_count_, 1));
  machine_gpus_.assign(machines, {});
  machine_sockets_.assign(machines, 0);
  machine_socket_gpus_.assign(machines, {});
  gpu_machine_.assign(static_cast<size_t>(gpu_count()), -1);
  gpu_socket_.assign(static_cast<size_t>(gpu_count()), -1);
  gpu_local_index_.assign(static_cast<size_t>(gpu_count()), -1);
  for (const Node& node : nodes_) {
    if (node.kind == NodeKind::kSocket && node.machine >= 0) {
      machine_sockets_[static_cast<size_t>(node.machine)] = std::max(
          machine_sockets_[static_cast<size_t>(node.machine)],
          node.socket + 1);
    }
  }
  for (size_t m = 0; m < machines; ++m) {
    machine_socket_gpus_[m].resize(
        static_cast<size_t>(machine_sockets_[m]));
  }
  for (int g = 0; g < gpu_count(); ++g) {
    const Node& node = nodes_[static_cast<size_t>(gpu_nodes_[static_cast<size_t>(g)])];
    if (node.machine < 0) continue;
    const size_t m = static_cast<size_t>(node.machine);
    gpu_machine_[static_cast<size_t>(g)] = node.machine;
    gpu_socket_[static_cast<size_t>(g)] = node.socket;
    gpu_local_index_[static_cast<size_t>(g)] =
        static_cast<int>(machine_gpus_[m].size());
    machine_gpus_[m].push_back(g);
    if (node.socket >= 0) {
      // Graphs without explicit socket nodes still carry per-GPU socket
      // indices; grow the list on demand for those.
      auto& sockets = machine_socket_gpus_[m];
      if (static_cast<size_t>(node.socket) >= sockets.size()) {
        sockets.resize(static_cast<size_t>(node.socket) + 1);
      }
      sockets[static_cast<size_t>(node.socket)].push_back(g);
    }
  }
  build_machine_classes();
  structure_valid_ = true;
}

void TopologyGraph::build_machine_classes() const {
  const size_t machines = machine_gpus_.size();
  const auto machine_of_node = [&](NodeId id) {
    return nodes_[static_cast<size_t>(id)].machine;
  };
  // Each machine's nodes and incident links in id order, as offsets into
  // two shared lists, plus each node's position within its machine.
  std::vector<int> position(nodes_.size(), -1);
  std::vector<size_t> node_begin(machines + 1, 0);
  std::vector<size_t> link_begin(machines + 1, 0);
  for (NodeId id = 0; id < node_count(); ++id) {
    if (const int machine = machine_of_node(id); machine >= 0) {
      position[static_cast<size_t>(id)] = static_cast<int>(
          node_begin[static_cast<size_t>(machine) + 1]++);
    }
  }
  for (const Link& link : links_) {
    const int ma = machine_of_node(link.a);
    const int mb = machine_of_node(link.b);
    if (ma >= 0) ++link_begin[static_cast<size_t>(ma) + 1];
    if (mb >= 0 && mb != ma) ++link_begin[static_cast<size_t>(mb) + 1];
  }
  for (size_t m = 0; m < machines; ++m) {
    node_begin[m + 1] += node_begin[m];
    link_begin[m + 1] += link_begin[m];
  }
  std::vector<NodeId> machine_nodes(node_begin[machines]);
  std::vector<LinkId> machine_links(link_begin[machines]);
  {
    std::vector<size_t> node_at(node_begin.begin(), node_begin.end() - 1);
    std::vector<size_t> link_at(link_begin.begin(), link_begin.end() - 1);
    for (NodeId id = 0; id < node_count(); ++id) {
      if (const int machine = machine_of_node(id); machine >= 0) {
        machine_nodes[node_at[static_cast<size_t>(machine)]++] = id;
      }
    }
    for (LinkId id = 0; id < link_count(); ++id) {
      const Link& link = links_[static_cast<size_t>(id)];
      const int ma = machine_of_node(link.a);
      const int mb = machine_of_node(link.b);
      if (ma >= 0) machine_links[link_at[static_cast<size_t>(ma)]++] = id;
      if (mb >= 0 && mb != ma) {
        machine_links[link_at[static_cast<size_t>(mb)]++] = id;
      }
    }
  }

  // A machine's shape is a run of words in a fixed layout, so that equal
  // runs mean equal subtrees: the node count, three words per node, then
  // seven words per link. Nodes are named by their position within the
  // machine, so the run is the same for every machine that is another's
  // shifted copy.
  const auto word = [](auto value) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(value));
  };
  enum : std::uint64_t { kInternal, kUplink };
  std::map<std::vector<std::uint64_t>, int> classes;
  std::vector<std::uint64_t> run;
  std::vector<std::uint64_t> previous;  // run of machine m - 1, if shared
  int previous_class = -1;
  int class_count = 0;
  machine_class_.assign(machines, -1);
  machine_link_begin_.assign(machines + 1, 0);
  machine_link_ids_.clear();
  machine_link_ids_.reserve(machine_links.size());
  for (size_t m = 0; m < machines; ++m) {
    const size_t nodes = node_begin[m + 1] - node_begin[m];
    run.resize(1 + 3 * nodes + 7 * (link_begin[m + 1] - link_begin[m]));
    std::uint64_t* out = run.data();
    *out++ = word(nodes);
    for (size_t i = node_begin[m]; i < node_begin[m + 1]; ++i) {
      const Node& node = nodes_[static_cast<size_t>(machine_nodes[i])];
      *out++ = word(node.kind);
      *out++ = word(node.socket);
      *out++ = word(node.local_gpu);
    }
    bool uplinked = false;
    bool singleton = false;
    for (size_t i = link_begin[m]; i < link_begin[m + 1]; ++i) {
      const Link& link = links_[static_cast<size_t>(machine_links[i])];
      const bool a_inside = machine_of_node(link.a) == static_cast<int>(m);
      const bool b_inside = machine_of_node(link.b) == static_cast<int>(m);
      if (a_inside && b_inside) {
        *out++ = kInternal;
        *out++ = word(position[static_cast<size_t>(link.a)]);
        *out++ = word(position[static_cast<size_t>(link.b)]);
      } else {
        // A link leaving the subtree: the one uplink to a network node is
        // part of the shape; any other makes the machine a class of its
        // own.
        const NodeId outside = a_inside ? link.b : link.a;
        singleton = singleton || uplinked || machine_of_node(outside) >= 0 ||
                    nodes_[static_cast<size_t>(outside)].kind !=
                        NodeKind::kNetwork;
        uplinked = true;
        *out++ = kUplink;
        *out++ = word(position[static_cast<size_t>(a_inside ? link.a
                                                            : link.b)]);
        *out++ = word(a_inside);
      }
      *out++ = word(link.kind);
      *out++ = std::bit_cast<std::uint64_t>(link.weight);
      *out++ = std::bit_cast<std::uint64_t>(link.bandwidth_gbps);
      *out++ = word(link.lanes);
    }
    const auto first = static_cast<std::ptrdiff_t>(machine_link_ids_.size());
    machine_link_ids_.insert(
        machine_link_ids_.end(),
        machine_links.begin() + static_cast<std::ptrdiff_t>(link_begin[m]),
        machine_links.begin() +
            static_cast<std::ptrdiff_t>(link_begin[m + 1]));
    if (singleton) {
      // Its GPUs may route through other machines: add every link of
      // every route between two of them (both directions, as ensure_paths
      // computes them).
      for (const int a : machine_gpus_[m]) {
        for (const int b : machine_gpus_[m]) {
          if (a == b) continue;
          const GpuPath route = shortest_path(
              gpu_nodes_[static_cast<size_t>(a)],
              gpu_nodes_[static_cast<size_t>(b)]);
          machine_link_ids_.insert(machine_link_ids_.end(),
                                   route.links.begin(), route.links.end());
        }
      }
      std::sort(machine_link_ids_.begin() + first, machine_link_ids_.end());
      machine_link_ids_.erase(
          std::unique(machine_link_ids_.begin() + first,
                      machine_link_ids_.end()),
          machine_link_ids_.end());
    }
    machine_link_begin_[m + 1] = machine_link_ids_.size();
    if (singleton) {
      machine_class_[m] = class_count++;
      continue;
    }
    // Machines of one shape usually come in a row: compare with the
    // previous run before searching every class.
    if (run != previous) {
      auto it = classes.find(run);
      if (it == classes.end()) it = classes.emplace(run, class_count++).first;
      previous_class = it->second;
      previous.swap(run);
    }
    machine_class_[m] = previous_class;
  }
}

const std::vector<int>& TopologyGraph::gpus_of_machine(int machine) const {
  ensure_structure();
  return machine_gpus_.at(static_cast<size_t>(machine));
}

const std::vector<int>& TopologyGraph::gpus_of_socket(int machine,
                                                      int socket) const {
  ensure_structure();
  static const std::vector<int> kEmpty;
  if (machine < 0 ||
      static_cast<size_t>(machine) >= machine_socket_gpus_.size()) {
    return kEmpty;
  }
  const auto& sockets = machine_socket_gpus_[static_cast<size_t>(machine)];
  if (socket < 0 || static_cast<size_t>(socket) >= sockets.size()) {
    return kEmpty;
  }
  return sockets[static_cast<size_t>(socket)];
}

const std::vector<std::vector<int>>& TopologyGraph::socket_gpu_lists(
    int machine) const {
  ensure_structure();
  return machine_socket_gpus_.at(static_cast<size_t>(machine));
}

int TopologyGraph::sockets_of_machine(int machine) const {
  ensure_structure();
  return machine_sockets_.at(static_cast<size_t>(machine));
}

namespace {

/// Dijkstra state reused across searches on one thread. Entries a search
/// writes are listed in `touched` and reset by the next search, so a search
/// costs the nodes it reaches (its machine plus the root, for the routes
/// ensure_paths asks for), not the node count of the graph. The arrays only
/// grow: a larger graph extends them with fresh entries, and a smaller one
/// uses a prefix whose touched entries were reset like any other. Only
/// `dist` needs the reset: the via_* entries are read along the chain from
/// the target, and every node on it had them written when its distance
/// became finite.
struct SearchScratch {
  std::vector<double> dist;
  std::vector<LinkId> via_link;
  std::vector<NodeId> via_node;
  std::vector<NodeId> touched;
  std::vector<std::pair<double, NodeId>> heap;

  void prepare(size_t node_count) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const NodeId n : touched) dist[static_cast<size_t>(n)] = kInf;
    touched.clear();
    heap.clear();
    if (dist.size() < node_count) {
      dist.resize(node_count, kInf);
      via_link.resize(node_count);
      via_node.resize(node_count);
    }
  }
};

}  // namespace

GpuPath TopologyGraph::shortest_path(NodeId from, NodeId to) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // One scratch per thread: concurrent searches on a shared graph never
  // share state, and the public signature stays a plain const call.
  thread_local SearchScratch scratch;
  scratch.prepare(nodes_.size());
  std::vector<double>& dist = scratch.dist;
  std::vector<LinkId>& via_link = scratch.via_link;
  std::vector<NodeId>& via_node = scratch.via_node;

  // (distance, node) min-heap via std::greater, as std::priority_queue
  // would keep it. Ties resolve to the smaller node id because the pair
  // comparison is lexicographic.
  using Entry = std::pair<double, NodeId>;
  std::vector<Entry>& heap = scratch.heap;
  const auto push = [&](NodeId node, double distance) {
    double& slot = dist[static_cast<size_t>(node)];
    if (slot == kInf) scratch.touched.push_back(node);
    slot = distance;
    heap.push_back({distance, node});
    std::push_heap(heap.begin(), heap.end(), std::greater<Entry>{});
  };
  push(from, 0.0);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<Entry>{});
    const auto [d, current] = heap.back();
    heap.pop_back();
    if (d > dist[static_cast<size_t>(current)]) continue;
    if (current == to) break;
    // GPUs are endpoints, not routers: traffic cannot transit a GPU to
    // reach another one (P100 NVLink peers must be directly linked; e.g.
    // on DGX-1 "communication between GPU1 and GPU5 will go over the
    // PCI-e switches and the system bus", Section 1).
    if (current != from &&
        nodes_[static_cast<size_t>(current)].kind == NodeKind::kGpu) {
      continue;
    }
    for (const Neighbor& n : adjacency_[static_cast<size_t>(current)]) {
      const double candidate = d + links_[static_cast<size_t>(n.link)].weight;
      if (candidate < dist[static_cast<size_t>(n.node)]) {
        via_link[static_cast<size_t>(n.node)] = n.link;
        via_node[static_cast<size_t>(n.node)] = current;
        push(n.node, candidate);
      }
    }
  }

  GpuPath path;
  path.distance = dist[static_cast<size_t>(to)];
  if (path.distance == kInf) return path;  // disconnected; empty links

  // Reconstruct, then reverse into from->to order.
  for (NodeId n = to; n != from; n = via_node[static_cast<size_t>(n)]) {
    path.links.push_back(via_link[static_cast<size_t>(n)]);
  }
  std::reverse(path.links.begin(), path.links.end());

  path.bottleneck_gbps = kInf;
  for (const LinkId l : path.links) {
    path.bottleneck_gbps =
        std::min(path.bottleneck_gbps, links_[static_cast<size_t>(l)].bandwidth_gbps);
  }
  if (path.links.empty()) path.bottleneck_gbps = 0.0;

  // P2P iff no intermediate node is a socket, machine, or network node.
  path.peer_to_peer = true;
  NodeId hop = from;
  for (const LinkId l : path.links) {
    const Link& link = links_[static_cast<size_t>(l)];
    hop = (link.a == hop) ? link.b : link.a;
    if (hop == to) break;
    const NodeKind kind = nodes_[static_cast<size_t>(hop)].kind;
    if (kind == NodeKind::kSocket || kind == NodeKind::kMachine ||
        kind == NodeKind::kNetwork) {
      path.peer_to_peer = false;
    }
  }
  return path;
}

namespace {

constexpr int kDensePathLimit = 64;

std::uint64_t pair_key(int a, int b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

}  // namespace

void TopologyGraph::ensure_paths() const {
  if (paths_valid_) return;
  ensure_structure();
  const int n = gpu_count();
  max_gpu_distance_ = 0.0;
  intra_paths_.clear();
  cross_cache_.clear();
  root_paths_.clear();
  gpu_dist_.clear();
  root_dist_.clear();
  intra_dist_.clear();
  machine_dist_offset_.clear();

  // Find the network root (required for hierarchical mode).
  NodeId root = kInvalidNode;
  for (NodeId id = 0; id < node_count(); ++id) {
    if (nodes_[static_cast<size_t>(id)].kind == NodeKind::kNetwork) {
      root = id;
      break;
    }
  }

  hierarchical_paths_ = n > kDensePathLimit && root != kInvalidNode;
  if (!hierarchical_paths_) {
    gpu_paths_.assign(static_cast<size_t>(n) * static_cast<size_t>(n),
                      GpuPath{});
    gpu_dist_.assign(static_cast<size_t>(n) * static_cast<size_t>(n), 0.0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        GpuPath path = shortest_path(gpu_nodes_[static_cast<size_t>(i)],
                                     gpu_nodes_[static_cast<size_t>(j)]);
        max_gpu_distance_ = std::max(max_gpu_distance_, path.distance);
        const size_t cell = static_cast<size_t>(i) * static_cast<size_t>(n) +
                            static_cast<size_t>(j);
        gpu_dist_[cell] = path.distance;
        gpu_paths_[cell] = std::move(path);
      }
    }
    paths_valid_ = true;
    return;
  }

  gpu_paths_.clear();
  // Per-GPU route to the network root (cross-machine traffic always
  // crosses the root in a tree-shaped cluster).
  root_paths_.resize(static_cast<size_t>(n));
  root_dist_.assign(static_cast<size_t>(n), 0.0);
  std::vector<double> machine_max_root(static_cast<size_t>(machine_count_),
                                       0.0);
  for (int g = 0; g < n; ++g) {
    GpuPath path = shortest_path(gpu_nodes_[static_cast<size_t>(g)], root);
    const size_t machine = static_cast<size_t>(machine_of_gpu(g));
    machine_max_root[machine] = std::max(machine_max_root[machine],
                                         path.distance);
    root_dist_[static_cast<size_t>(g)] = path.distance;
    root_paths_[static_cast<size_t>(g)] = std::move(path);
  }
  if (machine_count_ > 1) {
    // Diameter = the two largest per-machine root distances combined.
    double top1 = 0.0;
    double top2 = 0.0;
    for (const double d : machine_max_root) {
      if (d > top1) {
        top2 = top1;
        top1 = d;
      } else if (d > top2) {
        top2 = d;
      }
    }
    max_gpu_distance_ = top1 + top2;
  }

  // Intra-machine dense tables, one block per machine indexed by local
  // GPU index: full GpuPath objects for gpu_path() and flat doubles for
  // gpu_distance(). Diagonal slots stay empty.
  machine_dist_offset_.assign(static_cast<size_t>(machine_count_) + 1, 0);
  for (int machine = 0; machine < machine_count_; ++machine) {
    const size_t count = machine_gpus_[static_cast<size_t>(machine)].size();
    machine_dist_offset_[static_cast<size_t>(machine) + 1] =
        machine_dist_offset_[static_cast<size_t>(machine)] +
        static_cast<int>(count * count);
  }
  const size_t intra_cells = static_cast<size_t>(
      machine_dist_offset_[static_cast<size_t>(machine_count_)]);
  intra_dist_.assign(intra_cells, 0.0);
  intra_paths_.assign(intra_cells, GpuPath{});
  for (int machine = 0; machine < machine_count_; ++machine) {
    const std::vector<int>& gpus = machine_gpus_[static_cast<size_t>(machine)];
    for (const int a : gpus) {
      for (const int b : gpus) {
        if (a == b) continue;
        GpuPath path = shortest_path(gpu_nodes_[static_cast<size_t>(a)],
                                     gpu_nodes_[static_cast<size_t>(b)]);
        max_gpu_distance_ = std::max(max_gpu_distance_, path.distance);
        const size_t cell = intra_index(machine, a, b);
        intra_dist_[cell] = path.distance;
        intra_paths_[cell] = std::move(path);
      }
    }
  }
  paths_valid_ = true;
}

const GpuPath& TopologyGraph::gpu_path(int gpu_a, int gpu_b) const {
  ensure_paths();
  if (!hierarchical_paths_) {
    return gpu_paths_.at(static_cast<size_t>(gpu_a) *
                             static_cast<size_t>(gpu_count()) +
                         static_cast<size_t>(gpu_b));
  }
  GTS_DCHECK(gpu_a != gpu_b, "gpu_path of GPU ", gpu_a, " to itself");
  const int machine = gpu_machine_[static_cast<size_t>(gpu_a)];
  if (machine == gpu_machine_[static_cast<size_t>(gpu_b)]) {
    return intra_paths_[intra_index(machine, gpu_a, gpu_b)];
  }
  const std::uint64_t key = pair_key(gpu_a, gpu_b);
  if (const auto it = cross_cache_.find(key); it != cross_cache_.end()) {
    return it->second;
  }
  // Synthesize: a's route up to the root, then b's route reversed.
  const GpuPath& up = root_paths_[static_cast<size_t>(gpu_a)];
  const GpuPath& down = root_paths_[static_cast<size_t>(gpu_b)];
  GpuPath path;
  path.distance = up.distance + down.distance;
  path.peer_to_peer = false;
  path.links = up.links;
  path.links.insert(path.links.end(), down.links.rbegin(), down.links.rend());
  path.bottleneck_gbps = std::numeric_limits<double>::infinity();
  for (const LinkId l : path.links) {
    path.bottleneck_gbps = std::min(
        path.bottleneck_gbps, links_[static_cast<size_t>(l)].bandwidth_gbps);
  }
  if (path.links.empty()) path.bottleneck_gbps = 0.0;
  return cross_cache_.emplace(key, std::move(path)).first->second;
}

double TopologyGraph::gpu_distance(int gpu_a, int gpu_b) const {
  if (gpu_a == gpu_b) return 0.0;
  ensure_paths();
  if (!hierarchical_paths_) {
    return gpu_dist_[static_cast<size_t>(gpu_a) *
                         static_cast<size_t>(gpu_count()) +
                     static_cast<size_t>(gpu_b)];
  }
  const int machine = gpu_machine_[static_cast<size_t>(gpu_a)];
  if (machine != gpu_machine_[static_cast<size_t>(gpu_b)]) {
    return root_dist_[static_cast<size_t>(gpu_a)] +
           root_dist_[static_cast<size_t>(gpu_b)];
  }
  return intra_dist_[intra_index(machine, gpu_a, gpu_b)];
}

double TopologyGraph::max_gpu_distance() const {
  ensure_paths();
  return max_gpu_distance_;
}

std::string TopologyGraph::describe() const {
  std::ostringstream os;
  os << "topology: " << node_count() << " nodes, " << link_count()
     << " links, " << gpu_count() << " GPUs, " << machine_count()
     << " machine(s)\n";
  for (NodeId id = 0; id < node_count(); ++id) {
    const Node& n = node(id);
    os << "  [" << id << "] " << to_string(n.kind);
    if (!n.name.empty()) os << " " << n.name;
    if (n.machine >= 0) os << " machine=" << n.machine;
    if (n.socket >= 0) os << " socket=" << n.socket;
    if (n.gpu_index >= 0) os << " gpu=" << n.gpu_index;
    os << "\n";
  }
  for (LinkId id = 0; id < link_count(); ++id) {
    const Link& l = link(id);
    os << "  " << l.a << " <-> " << l.b << "  " << to_string(l.kind)
       << " w=" << l.weight << " bw=" << l.bandwidth_gbps << "GB/s lanes="
       << l.lanes << "\n";
  }
  if (gpu_count() > 1) {
    os << "  GPU distance matrix:\n";
    for (int i = 0; i < gpu_count(); ++i) {
      os << "   ";
      for (int j = 0; j < gpu_count(); ++j) {
        os << " " << (i == j ? std::string("-")
                             : util::format_double(gpu_distance(i, j), 0));
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace gts::topo
