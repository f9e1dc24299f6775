#include "topo/topology.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>

#include "core/counters.hpp"

namespace hxmesh::topo {

namespace {
constexpr std::size_t kDistCacheCap = 2048;

// Fixed substream index of the fault-victim draw: keeps fault RNG
// consumption disjoint from the per-flow substreams even when a sweep
// reuses one seed for both axes.
constexpr std::uint64_t kFaultStream = 0x0fa0'17ed;

// Who produced distance fields: they make "BFS never runs on structured
// topologies in the hot path" observable, not assumed.
Counter g_oracle_fills("routing.oracle_fills");
Counter g_bfs_fills("routing.bfs_fills");
Counter g_dist_cache_hits("routing.dist_cache_hits");
}  // namespace

const char* route_mode_name(RouteMode mode) {
  switch (mode) {
    case RouteMode::kMinimal:
      return "minimal";
    case RouteMode::kValiant:
      return "valiant";
    case RouteMode::kUgal:
      return "ugal";
  }
  return "?";
}

RouteMode parse_route_mode(const std::string& text) {
  if (text == "minimal") return RouteMode::kMinimal;
  if (text == "valiant") return RouteMode::kValiant;
  if (text == "ugal") return RouteMode::kUgal;
  throw std::invalid_argument("parse_route_mode: unknown mode '" + text +
                              "' (minimal, valiant, ugal)");
}

int Topology::add_endpoint() {
  NodeId n = graph_.add_node(NodeKind::kEndpoint);
  endpoints_.push_back(n);
  return static_cast<int>(endpoints_.size() - 1);
}

NodeId Topology::add_switch() { return graph_.add_node(NodeKind::kSwitch); }

void Topology::finalize() {
  graph_.finalize();
  rank_of_node_.assign(graph_.num_nodes(), -1);
  for (std::size_t r = 0; r < endpoints_.size(); ++r)
    rank_of_node_[endpoints_[r]] = static_cast<std::int32_t>(r);
}

const RoutingOracle& Topology::routing_oracle() const {
  // Closed forms describe the healthy fabric; once links have failed the
  // BFS fallback is the only oracle whose answers match the graph.
  if (oracle_ && !graph_.has_failed_links()) return *oracle_;
  std::call_once(oracle_once_, [&] {
    fallback_oracle_ = std::make_unique<BfsOracle>(graph_);
  });
  return *fallback_oracle_;
}

void Topology::fail_links(std::span<const LinkId> links) {
  for (LinkId l : links) {
    graph_.set_link_failed(l);
    graph_.set_link_failed(l ^ 1u);  // duplex partner (add_duplex pairs)
  }
  // Cached fields describe the pre-fault graph; drop them.
  std::unique_lock lock(dist_mutex_);
  dist_cache_.clear();
  dist_cache_order_.clear();
}

void Topology::apply_faults(const FaultSpec& spec) {
  if (spec.empty()) return;
  fault_spec_ = spec;
  const std::size_t cables = graph_.num_links() / 2;
  Rng rng = Rng::substream(spec.seed, kFaultStream);

  // Eligibility against the progressively degraded graph: failing this
  // cable must leave both of its endpoints with at least one healthy
  // out-link, so no node (in particular no single-cable fat-tree or
  // Dragonfly endpoint) is severed outright. Partitions across healthy
  // links are still possible and surface as DisconnectedError at fill.
  auto healthy_out = [&](NodeId n) {
    int count = 0;
    for (LinkId l : graph_.out_links(n))
      if (!graph_.link_failed(l)) ++count;
    return count;
  };
  auto fail_cable_if_eligible = [&](std::size_t cable) {
    const LinkId fwd = static_cast<LinkId>(2 * cable);
    const Link& lnk = graph_.link(fwd);
    if (healthy_out(lnk.src) < 2 || healthy_out(lnk.dst) < 2) return false;
    const LinkId pair[] = {fwd};
    fail_links(pair);
    return true;
  };

  if (spec.mode == FaultSpec::Mode::kFraction) {
    // One uniform per cable in cable-id order — the victim draw is a pure
    // function of (seed, cable id), independent of eligibility outcomes.
    std::vector<std::size_t> victims;
    for (std::size_t c = 0; c < cables; ++c)
      if (rng.uniform_double() < spec.fraction) victims.push_back(c);
    for (std::size_t c : victims) fail_cable_if_eligible(c);
    return;
  }

  // kCount: seeded shuffle, first `count` eligible cables fail.
  std::vector<std::uint32_t> order(cables);
  for (std::size_t c = 0; c < cables; ++c)
    order[c] = static_cast<std::uint32_t>(c);
  rng.shuffle(order);
  int remaining = spec.count;
  for (std::uint32_t c : order) {
    if (remaining == 0) break;
    if (fail_cable_if_eligible(c)) --remaining;
  }
}

Topology::DistField Topology::dist_field(NodeId dst_node) const {
  {
    std::shared_lock lock(dist_mutex_);
    auto it = dist_cache_.find(dst_node);
    if (it != dist_cache_.end()) {
      g_dist_cache_hits.add();
      return it->second;
    }
  }
  // The fill runs outside the lock: the graph is immutable after
  // construction, and concurrent engines should not serialize on each
  // other's misses. Endpoint destinations go through the oracle (closed
  // form on every built-in family); switch destinations — which no hot
  // path requests — keep the reverse BFS.
  auto field = std::make_shared<std::vector<std::int32_t>>();
  if (graph_.kind(dst_node) == NodeKind::kEndpoint) {
    const RoutingOracle& oracle = routing_oracle();
    oracle.fill(dst_node, *field);
    (oracle.closed_form() ? g_oracle_fills : g_bfs_fills).add();
    if (graph_.has_failed_links()) {
      // Faults may partition the fabric; surface that as a typed error at
      // fill time instead of letting -1 distances silently poison route
      // tables and rate solvers downstream.
      for (std::size_t r = 0; r < endpoints_.size(); ++r)
        if ((*field)[endpoints_[r]] < 0)
          throw DisconnectedError(
              name() + ": link faults disconnect endpoint " +
              std::to_string(r) + " from endpoint " +
              std::to_string(rank_of_node_[dst_node]));
    }
  } else {
    *field = graph_.dist_to(dst_node);
    g_bfs_fills.add();
  }
  std::unique_lock lock(dist_mutex_);
  auto it = dist_cache_.find(dst_node);
  if (it != dist_cache_.end()) return it->second;  // raced: keep the first
  if (dist_cache_.size() >= kDistCacheCap) {
    // FIFO eviction keeps memory bounded on large machines; shared_ptr
    // keeps evicted fields alive for threads still reading them.
    NodeId victim = dist_cache_order_.front();
    dist_cache_order_.pop_front();
    dist_cache_.erase(victim);
  }
  dist_cache_order_.push_back(dst_node);
  dist_cache_.emplace(dst_node, field);
  return field;
}

void Topology::sample_path_stratified(int src, int dst, int k, int num_strata,
                                      Rng& rng, std::vector<LinkId>& out,
                                      RouteMode mode) const {
  sample_stratified(*this, src, dst, k, num_strata, rng, out, mode);
}

void Topology::route(int src, int dst, int stratum, Rng& rng,
                     std::vector<LinkId>& out) const {
  (void)stratum;
  // At each node pick uniformly among healthy links that strictly
  // decrease the distance to the destination.
  NodeId cur = endpoint_node(src);
  const NodeId goal = endpoint_node(dst);
  DistField field = dist_field(goal);
  const auto& dist = *field;
  assert(dist[cur] >= 0 && "destination unreachable");
  std::vector<LinkId> cand;
  while (cur != goal) {
    cand.clear();
    for (LinkId l : graph_.out_links(cur))
      if (!graph_.link_failed(l) &&
          dist[graph_.link(l).dst] == dist[cur] - 1)
        cand.push_back(l);
    assert(!cand.empty());
    LinkId pick = cand[rng.uniform(cand.size())];
    out.push_back(pick);
    cur = graph_.link(pick).dst;
  }
}

int Topology::diameter(int exact_limit) const {
  int n = num_endpoints();
  std::vector<int> sources;
  if (n <= exact_limit) {
    sources.resize(n);
    for (int i = 0; i < n; ++i) sources[i] = i;
  } else {
    // Deterministic stratified sample. The +1 skew makes successive
    // sources sweep the intra-board/intra-leaf coordinate classes: a plain
    // stride is typically a multiple of the row length, which would alias
    // every source to one column and miss the true eccentricity on
    // families that are only transitive up to those classes (HammingMesh
    // boards, fat-tree leaves).
    int stride = std::max(1, n / 128) + 1;
    for (int i = 0; i < n; i += stride) sources.push_back(i);
  }
  int best = 0;
  const RoutingOracle& oracle = routing_oracle();
  if (oracle.closed_form()) {
    // O(1) per pair: no graph search at all.
    for (int s : sources) {
      const NodeId sn = endpoint_node(s);
      for (int t = 0; t < n; ++t)
        best = std::max(best,
                        static_cast<int>(oracle.node_dist(sn, endpoint_node(t))));
    }
    return best;
  }
  for (int s : sources) {
    auto dist = graph_.dist_from(endpoint_node(s));
    for (int t = 0; t < n; ++t)
      best = std::max(best, static_cast<int>(dist[endpoint_node(t)]));
  }
  return best;
}

}  // namespace hxmesh::topo
