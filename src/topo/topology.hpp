// Topology: base class of all network families in the library.
//
// One Topology instance models ONE network plane, exactly as the paper's
// simulations do. An accelerator ("endpoint") exposes ports_per_endpoint()
// links into this plane: 4 for HammingMesh/torus (N/S/E/W), 1 for fat tree
// and Dragonfly. planes() reports how many identical planes the full
// machine has (HammingMesh/torus/HyperX: 4, fat tree/Dragonfly: 16 — each
// accelerator package has 16 off-chip 400 Gb/s ports); the cost model uses
// it, while bandwidth results are reported as plane-independent fractions
// of injection bandwidth.
#pragma once

/// \file
/// \brief Topology — the base class of every network family (HammingMesh,
/// fat tree, Dragonfly, HyperX, torus), modeling one network plane with a
/// closed-form routing oracle and a thread-safe distance-field cache.

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rng.hpp"
#include "topo/faults.hpp"
#include "topo/graph.hpp"
#include "topo/routing_oracle.hpp"

namespace hxmesh::topo {

/// \brief Routing mode of a path sample or packet route (per-TrafficSpec,
/// `route=minimal|valiant|ugal`).
///
/// kMinimal is the default everywhere and takes minimal paths only.
/// kValiant routes via a uniformly random intermediate endpoint (two
/// minimal legs — Valiant's load balancing). kUgal picks minimal or
/// Valiant per path: the flow-level stand-in detours odd strata (see
/// Topology::sample_path_stratified), the packet simulator compares
/// queue-occupancy x distance products (UGAL-L). Families never see the
/// mode: the base class owns it.
enum class RouteMode : std::uint8_t { kMinimal = 0, kValiant = 1, kUgal = 2 };

inline constexpr int kNumRouteModes = 3;

/// \brief Canonical lowercase name ("minimal", "valiant", "ugal").
const char* route_mode_name(RouteMode mode);

/// \brief Parses a route_mode_name string.
/// \throws std::invalid_argument naming the bad token and the options.
RouteMode parse_route_mode(const std::string& text);

class Topology {
 public:
  virtual ~Topology() = default;

  const Graph& graph() const { return graph_; }

  /// Number of accelerators in the machine.
  int num_endpoints() const { return static_cast<int>(endpoints_.size()); }

  /// Graph node of accelerator `rank`.
  NodeId endpoint_node(int rank) const { return endpoints_[rank]; }

  /// Rank of an endpoint node; -1 for switches.
  int rank_of(NodeId n) const { return rank_of_node_[n]; }

  /// Human-readable name, e.g. "16x16 Hx2Mesh".
  virtual std::string name() const = 0;

  /// Planes in the full machine (this object models one of them).
  virtual int planes() const = 0;

  /// Ports each accelerator has into this plane.
  virtual int ports_per_endpoint() const = 0;

  /// Per-accelerator injection bandwidth into this plane [bytes/s].
  double injection_bandwidth() const {
    return ports_per_endpoint() * kLinkBandwidthBps;
  }

  /// Samples path `k` of `num_strata` for a flow from the endpoint `src`
  /// to the endpoint `dst` under `mode`: the one path sampler of every
  /// family, through which the flow-level model spreads a flow over its
  /// subflows ("strata") to stand in for per-packet adaptive routing.
  /// kMinimal takes the family's minimal route() on stratum
  /// stratum(src, dst, k, num_strata). kValiant joins two such routes at
  /// one uniformly random intermediate endpoint, the legs on strata s and
  /// s ^ 1 (so a family that picks its dimension order from the stratum's
  /// low bit does not double back at the join). kUgal's flow-level stand-in
  /// detours the odd strata and keeps the even ones minimal, so a flow's
  /// subflows are the mode's 50/50 mix. On a faulted fabric every leg is
  /// the distance-field walk of Topology::route instead. This base runs
  /// it on Topology::route; a family inherits it from RoutedTopology,
  /// which runs the same body on the family's route() and stratum().
  virtual void sample_path_stratified(int src, int dst, int k, int num_strata,
                                      Rng& rng, std::vector<LinkId>& out,
                                      RouteMode mode = RouteMode::kMinimal)
      const;

  /// True when sample_path_stratified returns one and the same path for
  /// src -> dst under `mode` at every stratum and RNG state: the mode is
  /// minimal, the fabric healthy, and the family says the pair has exactly
  /// one minimal path (one_minimal_path). The flow solver then draws such
  /// a flow once instead of once per stratum.
  bool one_path(int src, int dst, RouteMode mode) const {
    return mode == RouteMode::kMinimal && src != dst && !faulted() &&
           one_minimal_path(src, dst);
  }

  /// Network diameter in cables between accelerators, answered through the
  /// routing oracle (closed-form node_dist per endpoint pair; BFS only on
  /// fallback oracles). For machines with more than `exact_limit` endpoints
  /// a deterministic sample of source endpoints is used (all families here
  /// are near vertex-transitive, so sampling finds the true eccentricity in
  /// practice).
  int diameter(int exact_limit = 2048) const;

  /// Closed-form diameter per the formulas in Section III-B of the paper.
  virtual int diameter_formula() const { return diameter(); }

  /// Minimal hop distance in cables between two accelerators. The default
  /// asks a closed-form routing oracle directly (O(1)) and falls back to
  /// the cached distance field otherwise; topologies with endpoint-level
  /// closed forms still override it to skip the virtual oracle hop.
  virtual int hop_distance(int src, int dst) const {
    const RoutingOracle& oracle = routing_oracle();
    if (oracle.closed_form())
      return oracle.node_dist(endpoint_node(src), endpoint_node(dst));
    return (*dist_field(endpoint_node(dst)))[endpoint_node(src)];
  }

  /// Hop-distance field to `dst_node` (bounded cache; misses are rendered
  /// by the routing oracle — an O(V) closed-form fill on every built-in
  /// family, reverse BFS otherwise). Used by the packet-level simulator's
  /// route tables. Thread-safe: concurrent engines share one Topology, so
  /// the cache is guarded by a shared_mutex and fields are handed out as
  /// shared_ptr — a field stays alive for its users even after FIFO
  /// eviction drops it from the cache.
  using DistField = std::shared_ptr<const std::vector<std::int32_t>>;
  DistField dist_field(NodeId dst_node) const;

  /// The routing oracle of this topology: every built-in family installs a
  /// closed-form oracle at construction; anything else gets a lazily
  /// created BfsOracle. On a faulted fabric the closed forms no longer
  /// hold, so the BfsOracle fallback (which re-fills over the degraded
  /// graph) is served instead. Valid for the topology's lifetime.
  const RoutingOracle& routing_oracle() const;

  // -- link faults ---------------------------------------------------------

  /// Applies `spec` as seeded duplex-cable knock-outs. kFraction draws one
  /// uniform per cable in cable-id order (so the victim set is independent
  /// of eligibility evaluation); kCount walks a seeded shuffle of all
  /// cables taking the first `count` eligible. A cable is eligible only
  /// while neither endpoint of it would drop to zero healthy out-links —
  /// single-cable endpoints (fat tree, Dragonfly) stay attached. Must be
  /// called before the first routing query; call it at most once.
  void apply_faults(const FaultSpec& spec);

  /// Fails the given directed links and their duplex partners (`l ^ 1` —
  /// add_duplex allocates pairs). The test-facing primitive under
  /// apply_faults; resets the distance-field cache.
  void fail_links(std::span<const LinkId> links);

  /// True when any link of the graph is failed.
  bool faulted() const { return graph_.has_failed_links(); }

  /// The spec applied by apply_faults (empty when none was).
  const FaultSpec& fault_spec() const { return fault_spec_; }

 protected:
  /// Appends a minimal path from `src` to `dst` (never equal) on the
  /// healthy fabric. `stratum` is the family's choice among minimal paths
  /// (spine, dimension order, ...); `rng` breaks the ties it leaves. A
  /// family hides this with its own closed form. This one walks the
  /// distance field uniformly at random, skipping failed links, and
  /// ignores the stratum; it is also every family's route on a faulted
  /// fabric, where closed forms no longer hold.
  void route(int src, int dst, int stratum, Rng& rng,
             std::vector<LinkId>& out) const;
  /// Next to route(): whether `src` -> `dst` (never equal) has exactly one
  /// minimal path on the healthy fabric, counting parallel cables as
  /// distinct paths, so that route() returns it at every stratum. A
  /// family may answer false for a pair that has one (the solver then
  /// draws every stratum), never true for one that has more. This base
  /// always answers false. one_path() asks only on a healthy fabric in
  /// minimal mode.
  virtual bool one_minimal_path(int /*src*/, int /*dst*/) const {
    return false;
  }
  /// The stratum route() gets for subflow `k` of `num_strata`: a per-pair
  /// hash plus `k`. The hash decorrelates the subflows of different flows,
  /// and `k` alternates the low bit within a flow. A family may hide it.
  int stratum(int src, int dst, int k, int /*num_strata*/) const {
    const std::uint32_t h = static_cast<std::uint32_t>(src) * 2654435761u ^
                            static_cast<std::uint32_t>(dst) * 0x9e3779b9u;
    return static_cast<int>((h >> 8) & 0xffff) + k;
  }
  /// sample_path_stratified's one body, over `family`'s route() and
  /// stratum().
  template <class Family>
  void sample_stratified(const Family& family, int src, int dst, int k,
                         int num_strata, Rng& rng, std::vector<LinkId>& out,
                         RouteMode mode) const;
  /// Registers a new endpoint node; returns its rank.
  int add_endpoint();
  /// Registers a new switch node.
  NodeId add_switch();
  /// Must be called once after all nodes and links exist: builds the
  /// graph's adjacency index and the rank lookup.
  void finalize();
  /// Installs the family's closed-form oracle (call at the end of the
  /// constructor, once the graph and all coordinate tables exist).
  void set_routing_oracle(std::unique_ptr<RoutingOracle> oracle) {
    oracle_ = std::move(oracle);
  }

  Graph graph_;

 private:
  std::vector<NodeId> endpoints_;
  std::vector<std::int32_t> rank_of_node_;
  FaultSpec fault_spec_;
  // Set by the family constructor (closed form) or lazily on first use
  // (BFS fallback, guarded by oracle_once_).
  std::unique_ptr<RoutingOracle> oracle_;
  mutable std::unique_ptr<RoutingOracle> fallback_oracle_;
  mutable std::once_flag oracle_once_;
  mutable std::shared_mutex dist_mutex_;
  mutable std::unordered_map<NodeId, DistField> dist_cache_;
  // FIFO eviction order; a deque so evicting the oldest entry is O(1)
  // instead of shifting the whole order vector.
  mutable std::deque<NodeId> dist_cache_order_;
};

/// The base of every family F: `class F : public RoutedTopology<F>`. F
/// hides Topology::route with its closed form (and Topology::stratum, if
/// it picks strata its own way) and befriends Topology, and the sampler
/// calls both directly. A virtual call per stratum instead made sampling
/// the short paths of `hx2mesh:256x256` `shift:1` about 20% slower.
template <class Family>
class RoutedTopology : public Topology {
 public:
  void sample_path_stratified(int src, int dst, int k, int num_strata,
                              Rng& rng, std::vector<LinkId>& out,
                              RouteMode mode = RouteMode::kMinimal)
      const override {
    sample_stratified(static_cast<const Family&>(*this), src, dst, k,
                      num_strata, rng, out, mode);
  }
};

template <class Family>
void Topology::sample_stratified(const Family& family, int src, int dst,
                                 int k, int num_strata, Rng& rng,
                                 std::vector<LinkId>& out,
                                 RouteMode mode) const {
  out.clear();
  if (src == dst) return;
  // The closed-form routes describe the healthy fabric only.
  const bool healthy = !faulted();
  auto leg = [&](int from, int to, int s) {
    if (healthy)
      family.route(from, to, s, rng, out);
    else
      Topology::route(from, to, s, rng, out);
  };
  const int s = family.stratum(src, dst, k, num_strata);
  const int n = num_endpoints();
  const bool detour = mode == RouteMode::kValiant ||
                      (mode == RouteMode::kUgal && (k & 1) != 0);
  if (!detour || n <= 2) return leg(src, dst, s);
  int mid = src;
  while (mid == src || mid == dst) mid = static_cast<int>(rng.uniform(n));
  leg(src, mid, s);
  leg(mid, dst, s ^ 1);
}

}  // namespace hxmesh::topo
