// Directed multigraph substrate for network topologies.
//
// Nodes are either accelerators ("endpoints", which in HammingMesh also
// forward packets like small switches) or switches. Links are directed and
// carry the cable technology used (PCB trace, DAC copper, AoC optical), so
// the cost model and the simulators share one description of the machine.
// Physical duplex cables are represented as two directed links created
// together by add_duplex().
//
// Link layout. A link is {src, dst, cable}: 12 bytes, 2.6 M of them on
// hx2mesh:256x256. In the paper's model every link runs at one bandwidth
// and differs only in its cable, so bandwidth and latency are functions of
// the cable (Link::bandwidth(), Link::latency()), not per-link fields. A
// family that needs another speed adds a cable kind.
//
// A graph is built, then finalized. While it is built, add_node, add_link
// and add_duplex only append to flat node and link arrays. finalize()
// builds the out-CSR and the in-CSR from the link array in O(nodes +
// links) counting-sort passes. Adjacency queries need the index, and
// adding after finalize() throws. The index never changes afterwards, so
// the spans it hands out stay valid for the graph's lifetime and
// concurrent readers need no lock.
//
// Bundle rows (each out-row re-sorted by neighbor, so the parallel links
// to one neighbor are a contiguous run) are built on the first bundle() or
// find_link() call, once, under std::call_once: the first callers, on any
// threads, wait for one build, and later calls read the rows lock-free.
// Families that route by arithmetic (HammingMesh) never look a bundle up
// and never pay for the rows; the routing.bundle_indexes counter counts
// the builds.
//
// Order contracts (sampled paths, BFS fields and the packet engine's
// candidate and arbitration orders all depend on them):
//   - out_links(n) lists the links whose src is n in ascending id;
//   - in_links(n) lists the links whose dst is n in ascending id (dist_to
//     walks these rows);
//   - bundle(a, b) lists the parallel links a -> b in out-link order.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "core/units.hpp"

namespace hxmesh::topo {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xffffffffu;
inline constexpr LinkId kInvalidLink = 0xffffffffu;

enum class NodeKind : std::uint8_t { kEndpoint, kSwitch };

/// Physical cable technology; drives both latency and pricing.
enum class CableKind : std::uint8_t {
  kPcb,  // on-board metal trace (free in the cost model)
  kDac,  // direct-attach copper, 5 m
  kAoc,  // active optical, 20 m
};

/// One directed link. Its bandwidth and latency follow its cable.
struct Link {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  CableKind cable = CableKind::kDac;

  /// Bytes per second: every cable runs at the paper's link rate.
  double bandwidth() const { return kLinkBandwidthBps; }

  /// A board trace's latency, or a box-to-box cable's.
  picoseconds latency() const {
    return cable == CableKind::kPcb ? kBoardLatencyPs : kCableLatencyPs;
  }
};
static_assert(sizeof(Link) <= 12, "a link is {src, dst, cable}");

/// Directed multigraph with a CSR adjacency index built at finalize() and
/// bundle rows built on the first lookup.
class Graph {
 public:
  /// Sizes the node and link arrays up front (an optimization only).
  void reserve(std::size_t nodes, std::size_t links);

  /// Adds a node and returns its id (dense, starting at 0).
  /// \throws std::logic_error after finalize().
  NodeId add_node(NodeKind kind);

  /// Adds a directed link; returns its id (dense, starting at 0).
  /// \throws std::logic_error after finalize().
  LinkId add_link(NodeId src, NodeId dst, CableKind cable);

  /// Adds the two directed links of a duplex cable; returns the first id
  /// (the reverse direction is always `id + 1`).
  LinkId add_duplex(NodeId a, NodeId b, CableKind cable);

  /// Builds the out- and in-CSR; the graph is immutable afterwards.
  /// \throws std::logic_error when called twice.
  void finalize();

  std::size_t num_nodes() const { return kinds_.size(); }
  std::size_t num_links() const { return links_.size(); }

  NodeKind kind(NodeId n) const { return kinds_[n]; }
  const Link& link(LinkId l) const { return links_[l]; }

  /// Outgoing links of `n`, in ascending id.
  std::span<const LinkId> out_links(NodeId n) const {
    assert(finalized_ && "Graph queried before finalize()");
    return row(out_off_, out_ids_, n);
  }

  /// Incoming links of `n`, in ascending id.
  std::span<const LinkId> in_links(NodeId n) const {
    assert(finalized_ && "Graph queried before finalize()");
    return row(in_off_, in_ids_, n);
  }

  /// The parallel links a -> b in out-link order (possibly empty): an
  /// O(log out-degree) lookup, so routing hot paths pick among parallel
  /// cables without a heap allocation per decision. The first call builds
  /// the bundle rows (thread-safe).
  std::span<const LinkId> bundle(NodeId a, NodeId b) const;

  /// First link from `a` to `b` in out-link order, or kInvalidLink.
  LinkId find_link(NodeId a, NodeId b) const {
    const auto links = bundle(a, b);
    return links.empty() ? kInvalidLink : links.front();
  }

  /// Hop distance (number of links) from every node to `dst`; -1 when
  /// unreachable. Computed by reverse BFS over directed links, skipping
  /// failed ones.
  std::vector<std::int32_t> dist_to(NodeId dst) const;

  /// Hop distance from `src` to every node (forward BFS, failed links
  /// skipped).
  std::vector<std::int32_t> dist_from(NodeId src) const;

  // -- link faults ---------------------------------------------------------
  // A failed link still exists (ids, bundles, and out-link order are
  // unchanged — candidate-order contracts survive fault injection); it just
  // carries no traffic: every BFS and every candidate rule skips it.

  /// Marks one directed link failed (or healthy again).
  void set_link_failed(LinkId l, bool failed = true);

  /// True when `l` is marked failed. The has_failed_links() fast path keeps
  /// this free on healthy graphs — the overwhelmingly common case.
  bool link_failed(LinkId l) const { return has_failed_ && failed_[l] != 0; }

  /// True when any link is marked failed.
  bool has_failed_links() const { return has_failed_; }

  /// Number of directed links currently marked failed.
  std::size_t num_failed_links() const;

 private:
  static std::span<const LinkId> row(const std::vector<std::uint32_t>& off,
                                     const std::vector<LinkId>& ids,
                                     NodeId n) {
    return {ids.data() + off[n], off[n + 1] - off[n]};
  }
  std::vector<std::int32_t> bfs(NodeId start, bool reverse) const;
  void build_bundles() const;

  std::vector<NodeKind> kinds_;
  std::vector<Link> links_;
  bool finalized_ = false;

  // Out- and in-CSR: row n is ids[off[n] .. off[n + 1]).
  std::vector<std::uint32_t> out_off_, in_off_;
  std::vector<LinkId> out_ids_, in_ids_;
  // Bundle rows, built on the first lookup: each out-row reordered by
  // (dst, id), with the dst of every entry alongside, so row n of
  // bundle_ids_/bundle_dst_ shares out_off_ and bundle(a, b) is an
  // equal_range over bundle_dst_'s row a. The build runs under
  // bundles_once_; bundles_ready_ is the lookup's fast path, because
  // libstdc++'s call_once enters pthread_once on every call (about 2 ns
  // more per fat-tree lookup, a quarter of its cost).
  mutable std::once_flag bundles_once_;
  mutable std::atomic<bool> bundles_ready_{false};
  mutable std::vector<LinkId> bundle_ids_;
  mutable std::vector<NodeId> bundle_dst_;

  // Lazily sized on the first set_link_failed; empty (and has_failed_
  // false) on healthy graphs.
  std::vector<std::uint8_t> failed_;
  bool has_failed_ = false;
};

}  // namespace hxmesh::topo
