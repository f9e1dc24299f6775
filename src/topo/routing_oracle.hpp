// Routing oracles: closed-form answers to the questions the simulators ask
// the topology on their hot paths.
//
// Every structured family (HammingMesh, torus, HyperX, fat tree, Dragonfly)
// exposes enough coordinate structure to answer "how far is node u from
// destination endpoint d" and "which out-links of u move minimally toward
// d" without graph search. A RoutingOracle packages those answers behind
// one interface: node_dist() is the per-node closed form, fill() renders a
// whole distance field in O(V), and next_hops() enumerates the minimal
// next-hop candidates of a node *in out-link order* — the exact set, in the
// exact order, that filtering the adjacency through a reverse-BFS field
// yields. That ordering contract is what keeps packet-sim tie-breaks and
// path-sampling RNG consumption bit-identical to the BFS implementation the
// oracles replace; tests/test_routing_oracle.cpp enforces it against real
// BFS for every family.
//
// BfsOracle is the executable fallback (and equivalence reference) for
// graphs without a closed form.
#pragma once

/// \file
/// \brief RoutingOracle — closed-form hop distances, O(V) dist-field
/// fills, and ordered minimal next-hop enumeration, with a BFS fallback.

#include <cstdint>
#include <vector>

#include "topo/graph.hpp"

namespace hxmesh::topo {

/// \brief Answers minimal-hop routing queries toward endpoint nodes.
///
/// The contract for every implementation: node_dist(u, d) equals the
/// reverse-BFS hop distance from u to d (-1 when unreachable) for every
/// graph node u and every *endpoint* node d. fill() and next_hops() are
/// derived from that equality and must preserve it exactly.
class RoutingOracle {
 public:
  explicit RoutingOracle(const Graph& graph) : graph_(graph) {}
  virtual ~RoutingOracle() = default;

  RoutingOracle(const RoutingOracle&) = delete;
  RoutingOracle& operator=(const RoutingOracle&) = delete;

  /// \brief True when distances come from arithmetic, not search. Callers
  /// use it to pick between per-query loops (cheap closed forms) and
  /// field-at-a-time plans (BFS fallback).
  virtual bool closed_form() const { return true; }

  /// \brief Hop distance from any node to the endpoint node `dst_node`.
  virtual std::int32_t node_dist(NodeId from, NodeId dst_node) const = 0;

  /// \brief Fills `out[n] = node_dist(n, dst_node)` for every node — the
  /// O(V) replacement for a reverse BFS. Overridden by families that
  /// amortize per-destination precomputation across the fill.
  virtual void fill(NodeId dst_node, std::vector<std::int32_t>& out) const;

  /// \brief Appends the minimal next-hop links of `from` toward
  /// `dst_node`, in the graph's out-link order (empty when `from` is the
  /// destination or cannot reach it).
  virtual void next_hops(NodeId from, NodeId dst_node,
                         std::vector<LinkId>& out) const;

  /// \brief The candidate rule itself, factored out so every consumer
  /// (oracles, packet-sim route tables, deadlock analysis) shares one
  /// definition: out-links of `from` whose head is strictly one hop closer
  /// in `field`, appended in out-link order.
  static void next_hops_from_field(const Graph& graph,
                                   const std::vector<std::int32_t>& field,
                                   NodeId from, std::vector<LinkId>& out);

  const Graph& graph() const { return graph_; }

 protected:
  const Graph& graph_;
};

/// \brief Reverse-BFS fallback oracle: correct on any graph, O(V+E) per
/// distance field. Doubles as the executable equivalence reference for the
/// closed-form oracles.
class BfsOracle final : public RoutingOracle {
 public:
  using RoutingOracle::RoutingOracle;

  bool closed_form() const override { return false; }
  /// \brief O(V+E): runs a full reverse BFS per query. Use fill() (or the
  /// Topology::dist_field cache above it) for anything repeated.
  std::int32_t node_dist(NodeId from, NodeId dst_node) const override;
  void fill(NodeId dst_node, std::vector<std::int32_t>& out) const override;
  void next_hops(NodeId from, NodeId dst_node,
                 std::vector<LinkId>& out) const override;
};

}  // namespace hxmesh::topo
