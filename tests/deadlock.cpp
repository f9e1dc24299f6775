#include "deadlock.hpp"

#include <algorithm>
#include <unordered_set>

namespace hxmesh::routing {

using topo::LinkId;
using topo::NodeId;

namespace {

// Channel id = link * total_vcs + vc. Single-phase (minimal) analysis has
// total_vcs == num_vcs and phase base 0; the two-phase non-minimal analysis
// reuses the builder with total_vcs == 2 * num_vcs and builds each Valiant
// leg's CDG at its own VC base.
struct CdgBuilder {
  const topo::Topology& topo;
  int num_vcs;     // VCs available to one phase
  int total_vcs;   // channel stride (2 * num_vcs for two-phase analysis)
  const TurnFilter& filter;
  std::vector<std::vector<std::uint32_t>> adj;   // channel -> channels
  std::unordered_set<std::uint64_t> seen;        // dedup of edges
  std::size_t dependencies = 0;

  int vc_after(int vc, LinkId out) const {
    const topo::Graph& g = topo.graph();
    const topo::Link& l = g.link(out);
    if (g.kind(l.src) == topo::NodeKind::kEndpoint &&
        g.kind(l.dst) == topo::NodeKind::kSwitch)
      return std::min(vc + 1, num_vcs - 1);
    return vc;
  }

  void add_edge(std::uint32_t from, std::uint32_t to) {
    std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
    if (seen.insert(key).second) {
      adj[from].push_back(to);
      ++dependencies;
    }
  }

  bool is_rail_entry(LinkId out) const {
    const topo::Graph& g = topo.graph();
    const topo::Link& l = g.link(out);
    return g.kind(l.src) == topo::NodeKind::kEndpoint &&
           g.kind(l.dst) == topo::NodeKind::kSwitch;
  }

  // Minimum number of accelerator->switch (VC-escalating) hops on any
  // remaining minimal path from each node to `goal`. A real packet's VC
  // equals the escalations already taken, and any minimal route takes at
  // most num_vcs-1 in total, so channel (l, v) is only reachable when
  // v + rails_min[l.dst] <= num_vcs - 1. This prunes physically impossible
  // states (e.g. a third rail entry) that would otherwise report cycles.
  std::vector<int> rails_min(NodeId goal,
                             const std::vector<std::int32_t>& dist,
                             int dst) const {
    const topo::Graph& g = topo.graph();
    std::vector<int> rails(g.num_nodes(), 1 << 20);
    rails[goal] = 0;
    std::vector<NodeId> order(g.num_nodes());
    for (NodeId n = 0; n < g.num_nodes(); ++n) order[n] = n;
    std::sort(order.begin(), order.end(),
              [&](NodeId a, NodeId b) { return dist[a] < dist[b]; });
    for (NodeId n : order) {
      if (n == goal || dist[n] < 0) continue;
      for (LinkId l : g.out_links(n))
        if (!g.link_failed(l) && dist[g.link(l).dst] == dist[n] - 1 &&
            (!filter || filter(n, dst, l)))
          rails[n] = std::min(rails[n],
                              (is_rail_entry(l) ? 1 : 0) +
                                  rails[g.link(l).dst]);
    }
    return rails;
  }

  // Builds one phase's CDG: every minimal (filtered, healthy) dependency
  // over all destinations, with this phase's channels at VC offset
  // `vc_base`.
  void build(int vc_base = 0) {
    const topo::Graph& g = topo.graph();
    adj.resize(g.num_links() * total_vcs);
    for (int dst = 0; dst < topo.num_endpoints(); ++dst) {
      NodeId goal = topo.endpoint_node(dst);
      auto dist_ptr = topo.dist_field(goal);
      const auto& dist = *dist_ptr;
      const auto rails = rails_min(goal, dist, dst);
      for (NodeId n = 0; n < g.num_nodes(); ++n) {
        if (n == goal || dist[n] < 0) continue;
        // Minimal (optionally filtered) candidates out of n toward dst.
        std::vector<LinkId> outs;
        for (LinkId l : g.out_links(n))
          if (!g.link_failed(l) && dist[g.link(l).dst] == dist[n] - 1 &&
              (!filter || filter(n, dst, l)))
            outs.push_back(l);
        if (outs.empty()) continue;
        // Dependencies from every in-channel that could hold such a packet.
        for (std::size_t li = 0; li < g.num_links(); ++li) {
          const topo::Link& lin = g.link(static_cast<LinkId>(li));
          if (lin.dst != n) continue;
          if (g.link_failed(static_cast<LinkId>(li))) continue;
          // The in-link must itself be a hop the routing could have taken
          // toward this destination: minimal and filter-permitted.
          if (dist[lin.src] != dist[n] + 1) continue;
          if (filter && !filter(lin.src, dst, static_cast<LinkId>(li)))
            continue;
          for (int v = 0; v < num_vcs; ++v) {
            if (v + rails[n] > num_vcs - 1) continue;  // unreachable state
            for (LinkId out : outs) {
              int v2 = vc_after(v, out);
              if (v2 + rails[g.link(out).dst] > num_vcs - 1) continue;
              add_edge(static_cast<std::uint32_t>(li * total_vcs + vc_base +
                                                  v),
                       static_cast<std::uint32_t>(out * total_vcs + vc_base +
                                                  v2));
            }
          }
        }
      }
    }
  }

  // Valiant hand-off dependencies: a packet parked at intermediate
  // endpoint `via` holds a leg-1 channel while requesting its first leg-2
  // hop toward the final destination. Leg-2 channels start at `vc_base2`
  // with the packet-sim's injection VC rule.
  void add_transit_edges(int vc_base2) {
    const topo::Graph& g = topo.graph();
    for (int d2 = 0; d2 < topo.num_endpoints(); ++d2) {
      NodeId goal = topo.endpoint_node(d2);
      auto dist_ptr = topo.dist_field(goal);
      const auto& dist = *dist_ptr;
      for (int via = 0; via < topo.num_endpoints(); ++via) {
        if (via == d2) continue;
        NodeId e = topo.endpoint_node(via);
        if (dist[e] < 0) continue;
        std::vector<std::uint32_t> outs2;  // leg-2 entry channels from e
        for (LinkId l : g.out_links(e))
          if (!g.link_failed(l) && dist[g.link(l).dst] == dist[e] - 1 &&
              (!filter || filter(e, d2, l))) {
            int v2 = vc_base2 +
                     (is_rail_entry(l) ? std::min(1, num_vcs - 1) : 0);
            outs2.push_back(static_cast<std::uint32_t>(l * total_vcs + v2));
          }
        if (outs2.empty()) continue;
        for (LinkId li = 0; li < g.num_links(); ++li) {
          const topo::Link& lin = g.link(li);
          if (lin.dst != e || g.link_failed(li)) continue;
          if (filter && !filter(lin.src, via, li)) continue;
          for (int v = 0; v < num_vcs; ++v)
            for (std::uint32_t c2 : outs2)
              add_edge(static_cast<std::uint32_t>(li * total_vcs + v), c2);
        }
      }
    }
  }
};

// Iterative three-color DFS cycle detection returning a witness cycle.
bool find_cycle(const std::vector<std::vector<std::uint32_t>>& adj,
                std::vector<std::uint32_t>& cycle) {
  std::vector<std::uint8_t> color(adj.size(), 0);  // 0 white 1 gray 2 black
  std::vector<std::uint32_t> stack, path;
  for (std::uint32_t s = 0; s < adj.size(); ++s) {
    if (color[s] != 0) continue;
    // (node, edge index) explicit DFS
    std::vector<std::pair<std::uint32_t, std::size_t>> frames{{s, 0}};
    color[s] = 1;
    path.assign(1, s);
    while (!frames.empty()) {
      auto& [u, idx] = frames.back();
      if (idx < adj[u].size()) {
        std::uint32_t v = adj[u][idx++];
        if (color[v] == 1) {
          // Found a cycle: extract it from the path.
          auto it = std::find(path.begin(), path.end(), v);
          cycle.assign(it, path.end());
          return true;
        }
        if (color[v] == 0) {
          color[v] = 1;
          frames.push_back({v, 0});
          path.push_back(v);
        }
      } else {
        color[u] = 2;
        frames.pop_back();
        path.pop_back();
      }
    }
  }
  return false;
}

}  // namespace

namespace {

DeadlockReport finish(CdgBuilder& builder) {
  DeadlockReport report;
  report.channels = builder.adj.size();
  report.dependencies = builder.dependencies;
  std::vector<std::uint32_t> cycle;
  report.deadlock_free = !find_cycle(builder.adj, cycle);
  for (std::uint32_t c : cycle)
    report.cycle.emplace_back(static_cast<LinkId>(c / builder.total_vcs),
                              static_cast<int>(c % builder.total_vcs));
  return report;
}

}  // namespace

DeadlockReport analyze(const topo::Topology& topology, int num_vcs,
                       const TurnFilter& filter) {
  CdgBuilder builder{topology, num_vcs, num_vcs, filter, {}, {}, 0};
  builder.build();
  return finish(builder);
}

DeadlockReport analyze_nonminimal(const topo::Topology& topology, int num_vcs,
                                  const TurnFilter& filter,
                                  bool separate_phases) {
  // Each Valiant leg routes minimally, so each leg's CDG is the minimal
  // CDG over its own VC range; hand-off dependencies only ever point from
  // leg-1 channels into leg-2 channels. With disjoint ranges the union is
  // acyclic iff both legs are (the hand-off edges cannot close a cycle);
  // collapsing both legs onto one range (separate_phases = false) is the
  // deliberately cyclic rule tests use as a negative control.
  const int total = num_vcs * (separate_phases ? 2 : 1);
  const int base2 = separate_phases ? num_vcs : 0;
  CdgBuilder builder{topology, num_vcs, total, filter, {}, {}, 0};
  builder.build(0);
  if (separate_phases) builder.build(base2);
  builder.add_transit_edges(base2);
  return finish(builder);
}

TurnFilter north_last_filter(const topo::HammingMesh& hx) {
  return [&hx](NodeId node, int dst_rank, LinkId out) {
    const topo::Graph& g = hx.graph();
    const topo::Link& l = g.link(out);
    // Only on-board accelerator-to-accelerator hops are restricted.
    int src_rank = hx.rank_of(l.src);
    int nbr_rank = hx.rank_of(l.dst);
    (void)node;
    if (src_rank < 0 || nbr_rank < 0) return true;
    bool north = hx.gy_of(nbr_rank) == hx.gy_of(src_rank) + 1;
    if (!north) return true;
    // North is allowed only when no x-direction work remains: the packet
    // must already be in the destination's column, or at its board-exit
    // column if the destination is on another board column.
    int gx = hx.gx_of(src_rank), dgx = hx.gx_of(dst_rank);
    if (hx.board_x_of(src_rank) == hx.board_x_of(dst_rank)) return gx == dgx;
    // Different board column: x work (reaching a W/E edge) comes first.
    int a = hx.params().a;
    int i = gx % a;
    return i == 0 || i == a - 1;
  };
}

}  // namespace hxmesh::routing
