#include "topo/fattree.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "core/stats.hpp"

namespace hxmesh::topo {

namespace {
int ceil_div(int a, int b) { return (a + b - 1) / b; }
}  // namespace

// Closed-form oracle. Distances follow from the wiring invariants the
// builders guarantee: in a two-level tree every leaf reaches every spine;
// in a three-level tree every leaf reaches every aggregation switch of its
// pod and aggregation switch (g, j) reaches every core of group j — so the
// hop count depends only on which of {leaf, pod} the two sides share.
class FatTree::Oracle final : public RoutingOracle {
 public:
  explicit Oracle(const FatTree& t) : RoutingOracle(t.graph()), t_(t) {
    // Node classification: 0 = leaf, 1 = aggregation (L2), 2 = spine/core;
    // endpoints are recognized through rank_of().
    level_of_node_.assign(t.graph().num_nodes(), -1);
    idx_of_node_.assign(t.graph().num_nodes(), -1);
    auto tag = [&](const std::vector<NodeId>& nodes, std::int8_t level) {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        level_of_node_[nodes[i]] = level;
        idx_of_node_[nodes[i]] = static_cast<std::int32_t>(i);
      }
    };
    tag(t.leaves_, 0);
    tag(t.l2_, 1);
    tag(t.spines_, 2);
  }

  std::int32_t node_dist(NodeId from, NodeId dst_node) const override {
    const int dd = t_.rank_of(dst_node);
    const int dl = t_.leaf_of(dd);
    const int s = t_.rank_of(from);
    if (t_.levels_ == 2) {
      if (s >= 0) return s == dd ? 0 : (t_.leaf_of(s) == dl ? 2 : 4);
      switch (level_of_node_[from]) {
        case 0: return idx_of_node_[from] == dl ? 1 : 3;
        default: return 2;  // spine: every leaf is one hop away
      }
    }
    const int dpod = t_.pod_of_leaf(dl);
    if (s >= 0) {
      if (s == dd) return 0;
      const int sl = t_.leaf_of(s);
      if (sl == dl) return 2;
      return t_.pod_of_leaf(sl) == dpod ? 4 : 6;
    }
    switch (level_of_node_[from]) {
      case 0: {
        const int l = idx_of_node_[from];
        if (l == dl) return 1;
        return t_.pod_of_leaf(l) == dpod ? 3 : 5;
      }
      case 1:
        return idx_of_node_[from] / t_.l2_per_pod_ == dpod ? 2 : 4;
      default:
        return 3;  // core: reaches the destination pod's L2 directly
    }
  }

 private:
  const FatTree& t_;
  std::vector<std::int8_t> level_of_node_;
  std::vector<std::int32_t> idx_of_node_;
};

FatTree::FatTree(FatTreeParams params) : params_(params) {
  if (params_.num_endpoints <= 0 || params_.radix < 4)
    throw std::invalid_argument("FatTree: bad parameters");
  down_ = static_cast<int>(params_.radix / (1.0 + params_.taper));
  up_ = params_.radix - down_;
  if (params_.num_endpoints <= down_ * params_.radix) {
    levels_ = 2;
    build_two_level();
  } else {
    levels_ = 3;
    build_three_level();
  }
  finalize();
  set_routing_oracle(std::make_unique<Oracle>(*this));
}

void FatTree::build_two_level() {
  const int n = params_.num_endpoints;
  const int num_leaves = ceil_div(n, down_);
  int num_spines = ceil_div(num_leaves * up_, params_.radix);
  // Every pair of leaves must share a spine; our round-robin wiring
  // guarantees that when each leaf reaches all spines.
  assert(num_spines <= up_ && "two-level tree needs up_ports >= spines");
  for (int i = 0; i < num_leaves; ++i) leaves_.push_back(add_switch());
  for (int i = 0; i < num_spines; ++i) spines_.push_back(add_switch());
  for (int r = 0; r < n; ++r) {
    int rank = add_endpoint();
    graph_.add_duplex(endpoint_node(rank), leaves_[r / down_], CableKind::kDac);
  }
  for (int i = 0; i < num_leaves; ++i)
    for (int k = 0; k < up_; ++k)
      graph_.add_duplex(leaves_[i], spines_[(i * up_ + k) % num_spines],
                        CableKind::kAoc);
}

void FatTree::build_three_level() {
  const int n = params_.num_endpoints;
  leaves_per_pod_ = params_.radix / 2;
  l2_per_pod_ = up_;  // one up-link from every leaf to every pod L2
  const int pod_endpoints = down_ * leaves_per_pod_;
  pods_ = ceil_div(n, pod_endpoints);
  l3_group_size_ = ceil_div(pods_, 2);  // L2 has radix/2 up-links, 64 ports
  const int l2_up = params_.radix / 2;
  assert(l2_up >= l3_group_size_ && "three-level tree: too many pods");

  const int num_leaves = pods_ * leaves_per_pod_;
  for (int i = 0; i < num_leaves; ++i) leaves_.push_back(add_switch());
  for (int i = 0; i < pods_ * l2_per_pod_; ++i) l2_.push_back(add_switch());
  for (int i = 0; i < l2_per_pod_ * l3_group_size_; ++i)
    spines_.push_back(add_switch());

  for (int r = 0; r < n; ++r) {
    int rank = add_endpoint();
    graph_.add_duplex(endpoint_node(rank), leaves_[r / down_], CableKind::kDac);
  }
  // Leaf -> pod aggregation: leaf i in pod g connects once to every L2 j.
  for (int g = 0; g < pods_; ++g)
    for (int i = 0; i < leaves_per_pod_; ++i)
      for (int j = 0; j < l2_per_pod_; ++j)
        graph_.add_duplex(leaves_[g * leaves_per_pod_ + i],
                          l2_[g * l2_per_pod_ + j], CableKind::kAoc);
  // Aggregation -> core: L2 (g, j) spreads its radix/2 up-links over core
  // group j (size l3_group_size_), giving parallel links when pods are few.
  for (int g = 0; g < pods_; ++g)
    for (int j = 0; j < l2_per_pod_; ++j)
      for (int k = 0; k < l2_up; ++k)
        graph_.add_duplex(l2_[g * l2_per_pod_ + j],
                          spines_[j * l3_group_size_ + k % l3_group_size_],
                          CableKind::kAoc);
}

int FatTree::num_switches() const {
  return static_cast<int>(leaves_.size() + l2_.size() + spines_.size());
}

std::string FatTree::name() const {
  if (params_.taper >= 1.0) return "nonblocking fat tree";
  if (params_.taper >= 0.5) return "50% tapered fat tree";
  return "75% tapered fat tree";
}

LinkId FatTree::random_link_between(NodeId a, NodeId b, Rng& rng) const {
  auto ls = graph_.bundle(a, b);
  assert(!ls.empty());
  return ls[rng.uniform(ls.size())];
}

int FatTree::stratum(int src, int dst, int k, int num_strata) const {
  (void)dst;
  const int ups = levels_ == 2 ? num_spines() : l2_per_pod_;
  const int j = src + k * std::max(1, ups / num_strata);
  if (levels_ == 2) return j % ups;
  return j % ups + ups * ((j + k) % l3_group_size_);
}

void FatTree::route(int src, int dst, int stratum, Rng& rng,
                    std::vector<LinkId>& out) const {
  NodeId se = endpoint_node(src), de = endpoint_node(dst);
  int sl = leaf_of(src), dl = leaf_of(dst);
  out.push_back(graph_.find_link(se, leaves_[sl]));
  if (sl == dl) {
    out.push_back(graph_.find_link(leaves_[dl], de));
    return;
  }
  if (levels_ == 2) {
    NodeId spine = spines_[stratum % num_spines()];
    out.push_back(random_link_between(leaves_[sl], spine, rng));
    out.push_back(random_link_between(spine, leaves_[dl], rng));
  } else {
    const int up = stratum % l2_per_pod_;
    const int core = stratum / l2_per_pod_ % l3_group_size_;
    int sg = pod_of_leaf(sl), dg = pod_of_leaf(dl);
    NodeId sl2 = l2_[sg * l2_per_pod_ + up];
    out.push_back(random_link_between(leaves_[sl], sl2, rng));
    if (sg != dg) {
      NodeId c = spines_[up * l3_group_size_ + core];
      NodeId dl2 = l2_[dg * l2_per_pod_ + up];
      out.push_back(random_link_between(sl2, c, rng));
      out.push_back(random_link_between(c, dl2, rng));
      sl2 = dl2;
    }
    out.push_back(random_link_between(sl2, leaves_[dl], rng));
  }
  out.push_back(graph_.find_link(leaves_[dl], de));
}

}  // namespace hxmesh::topo
