#include "topo/routing_oracle.hpp"

namespace hxmesh::topo {

void RoutingOracle::fill(NodeId dst_node,
                         std::vector<std::int32_t>& out) const {
  const std::size_t n = graph_.num_nodes();
  out.resize(n);
  for (NodeId u = 0; u < n; ++u) out[u] = node_dist(u, dst_node);
}

void RoutingOracle::next_hops(NodeId from, NodeId dst_node,
                              std::vector<LinkId>& out) const {
  out.clear();
  const std::int32_t d = node_dist(from, dst_node);
  if (d <= 0) return;
  for (LinkId l : graph_.out_links(from))
    if (!graph_.link_failed(l) &&
        node_dist(graph_.link(l).dst, dst_node) == d - 1)
      out.push_back(l);
}

void RoutingOracle::next_hops_from_field(const Graph& graph,
                                         const std::vector<std::int32_t>& field,
                                         NodeId from,
                                         std::vector<LinkId>& out) {
  if (field[from] <= 0) return;
  // Failed links are skipped: a dead link may still point at a node the
  // field puts one hop closer (reachable another way), but a packet cannot
  // take it.
  for (LinkId l : graph.out_links(from))
    if (!graph.link_failed(l) && field[graph.link(l).dst] == field[from] - 1)
      out.push_back(l);
}

std::int32_t BfsOracle::node_dist(NodeId from, NodeId dst_node) const {
  return graph_.dist_to(dst_node)[from];
}

void BfsOracle::fill(NodeId dst_node, std::vector<std::int32_t>& out) const {
  out = graph_.dist_to(dst_node);
}

void BfsOracle::next_hops(NodeId from, NodeId dst_node,
                          std::vector<LinkId>& out) const {
  out.clear();
  next_hops_from_field(graph_, graph_.dist_to(dst_node), from, out);
}

}  // namespace hxmesh::topo
