#include "topo/dragonfly.hpp"

#include <cassert>
#include <deque>
#include <stdexcept>

namespace hxmesh::topo {

namespace {

// Closed-form oracle over the precomputed all-pairs router distance
// matrix: an endpoint is one hop from its router on each side.
class DragonflyOracle final : public RoutingOracle {
 public:
  explicit DragonflyOracle(const Dragonfly& t)
      : RoutingOracle(t.graph()), t_(t) {
    router_of_node_.assign(t.graph().num_nodes(), -1);
    for (int r = 0; r < t.num_routers(); ++r)
      router_of_node_[t.router_node(r)] = r;
  }

  std::int32_t node_dist(NodeId from, NodeId dst_node) const override {
    const int dd = t_.rank_of(dst_node);
    const int rd = t_.router_of(dd);
    const int s = t_.rank_of(from);
    if (s >= 0) return s == dd ? 0 : 2 + t_.router_dist(t_.router_of(s), rd);
    return 1 + t_.router_dist(router_of_node_[from], rd);
  }

 private:
  const Dragonfly& t_;
  std::vector<std::int32_t> router_of_node_;
};

}  // namespace

Dragonfly::Dragonfly(DragonflyParams params) : params_(params) {
  const int a = params_.routers_per_group;
  const int p = params_.endpoints_per_router;
  const int h = params_.global_per_router;
  const int g = params_.groups;
  if (g < 2 || g > a * h + 1)
    throw std::invalid_argument("Dragonfly: groups out of range");

  for (int i = 0; i < g * a; ++i) routers_.push_back(add_switch());
  radj_.resize(routers_.size());

  // Endpoints.
  for (int r = 0; r < g * a; ++r)
    for (int t = 0; t < p; ++t) {
      int rank = add_endpoint();
      graph_.add_duplex(endpoint_node(rank), routers_[r], CableKind::kDac);
    }

  auto connect_routers = [&](int r1, int r2, CableKind cable) {
    LinkId l = graph_.add_duplex(routers_[r1], routers_[r2], cable);
    radj_[r1].push_back({r2, l});
    radj_[r2].push_back({r1, l + 1});  // reverse direction of the duplex
  };

  // Local complete graph inside each group (DAC).
  for (int grp = 0; grp < g; ++grp)
    for (int i = 0; i < a; ++i)
      for (int j = i + 1; j < a; ++j)
        connect_routers(grp * a + i, grp * a + j, CableKind::kDac);

  // Global links: every group pair gets floor(a*h/(g-1)) AoC cables.
  // A group's global port q targets group (G + 1 + q mod (g-1)) mod g, so
  // consecutive ports stripe across peer groups and every router reaches
  // min(h, g-1) distinct groups — the canonical Dragonfly arrangement.
  const int per_pair = (a * h) / (g - 1);
  for (int g1 = 0; g1 < g; ++g1)
    for (int g2 = g1 + 1; g2 < g; ++g2)
      for (int k = 0; k < per_pair; ++k) {
        int q1 = (g2 - g1 - 1 + g) % g + k * (g - 1);
        int q2 = (g1 - g2 - 1 + 2 * g) % g + k * (g - 1);
        connect_routers(g1 * a + q1 / h, g2 * a + q2 / h, CableKind::kAoc);
      }

  // All-pairs router distances by BFS (router graph is small: g*a nodes).
  const int nr = g * a;
  rdist_.assign(nr, std::vector<std::uint8_t>(nr, 0xff));
  for (int s = 0; s < nr; ++s) {
    auto& dist = rdist_[s];
    std::deque<int> queue{s};
    dist[s] = 0;
    while (!queue.empty()) {
      int u = queue.front();
      queue.pop_front();
      for (auto [v, l] : radj_[u])
        if (dist[v] == 0xff) {
          dist[v] = static_cast<std::uint8_t>(dist[u] + 1);
          queue.push_back(v);
        }
    }
    for (int t = 0; t < nr; ++t)
      router_diameter_ = std::max(router_diameter_, static_cast<int>(dist[t]));
  }
  finalize();
  set_routing_oracle(std::make_unique<DragonflyOracle>(*this));
}

void Dragonfly::route(int src, int dst, int stratum, Rng& rng,
                      std::vector<LinkId>& out) const {
  (void)stratum;
  const int r1 = router_of(src), r2 = router_of(dst);
  out.push_back(graph_.find_link(endpoint_node(src), routers_[r1]));
  // Random minimal walk on the router graph using the distance matrix.
  int cur = r1;
  std::vector<std::pair<int, LinkId>> cand;
  while (cur != r2) {
    cand.clear();
    const int d = router_dist(cur, r2);
    for (auto [v, l] : radj_[cur])
      if (router_dist(v, r2) == d - 1) cand.push_back({v, l});
    assert(!cand.empty());
    auto [v, l] = cand[rng.uniform(cand.size())];
    out.push_back(l);
    cur = v;
  }
  out.push_back(graph_.find_link(routers_[r2], endpoint_node(dst)));
}

}  // namespace hxmesh::topo
