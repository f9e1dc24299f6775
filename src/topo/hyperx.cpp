#include "topo/hyperx.hpp"

#include <cassert>
#include <stdexcept>

namespace hxmesh::topo {

// Closed-form oracle. From an endpoint the distance is hop_distance(); from
// a switch it is 1 (ejection) plus one hop per differing grid coordinate
// (rows and columns are fully connected).
class HyperX::Oracle final : public RoutingOracle {
 public:
  explicit Oracle(const HyperX& t) : RoutingOracle(t.graph()), t_(t) {
    sw_of_node_.assign(t.graph().num_nodes(), -1);
    for (std::size_t i = 0; i < t.switches_.size(); ++i)
      sw_of_node_[t.switches_[i]] = static_cast<std::int32_t>(i);
  }

  std::int32_t node_dist(NodeId from, NodeId dst_node) const override {
    const int dd = t_.rank_of(dst_node);
    const int r = t_.rank_of(from);
    if (r >= 0) return t_.hop_distance(r, dd);
    const int s = sw_of_node_[from];
    const int sd = dd / t_.params_.endpoints_per_switch;
    if (s == sd) return 1;
    return 1 + (s % t_.params_.x != sd % t_.params_.x) +
           (s / t_.params_.x != sd / t_.params_.x);
  }

 private:
  const HyperX& t_;
  std::vector<std::int32_t> sw_of_node_;
};

HyperX::HyperX(HyperXParams params) : params_(params) {
  const int x = params_.x, y = params_.y;
  if (x < 2 || y < 2 || params_.endpoints_per_switch < 1)
    throw std::invalid_argument("HyperX: bad parameters");
  for (int i = 0; i < x * y; ++i) switches_.push_back(add_switch());
  for (int s = 0; s < x * y; ++s)
    for (int t = 0; t < params_.endpoints_per_switch; ++t) {
      int rank = add_endpoint();
      graph_.add_duplex(endpoint_node(rank), switches_[s], CableKind::kDac);
    }
  // Rows fully connected (DAC in-row), columns fully connected (AoC).
  for (int r = 0; r < y; ++r)
    for (int c1 = 0; c1 < x; ++c1)
      for (int c2 = c1 + 1; c2 < x; ++c2)
        graph_.add_duplex(switches_[switch_at(c1, r)],
                          switches_[switch_at(c2, r)], CableKind::kDac);
  for (int c = 0; c < x; ++c)
    for (int r1 = 0; r1 < y; ++r1)
      for (int r2 = r1 + 1; r2 < y; ++r2)
        graph_.add_duplex(switches_[switch_at(c, r1)],
                          switches_[switch_at(c, r2)], CableKind::kAoc);
  finalize();
  set_routing_oracle(std::make_unique<Oracle>(*this));
}

void HyperX::route(int src, int dst, int stratum, Rng& rng,
                   std::vector<LinkId>& out) const {
  (void)rng;
  int s1 = src / params_.endpoints_per_switch;
  int s2 = dst / params_.endpoints_per_switch;
  NodeId cur = switches_[s1];
  out.push_back(graph_.find_link(endpoint_node(src), cur));
  if (s1 != s2) {
    int c1 = s1 % params_.x, r1 = s1 / params_.x;
    int c2 = s2 % params_.x, r2 = s2 / params_.x;
    bool x_first = (stratum & 1) != 0;
    auto hop = [&](int to_switch) {
      NodeId next = switches_[to_switch];
      LinkId l = graph_.find_link(cur, next);
      assert(l != kInvalidLink);
      out.push_back(l);
      cur = next;
    };
    if (x_first) {
      if (c1 != c2) hop(switch_at(c2, r1));
      if (r1 != r2) hop(switch_at(c2, r2));
    } else {
      if (r1 != r2) hop(switch_at(c1, r2));
      if (c1 != c2) hop(switch_at(c2, r2));
    }
  }
  out.push_back(graph_.find_link(cur, endpoint_node(dst)));
}

}  // namespace hxmesh::topo
