#include "collectives/models.hpp"

#include <algorithm>
#include <cmath>

#include "collectives/hamiltonian.hpp"
#include "engine/flow_engine.hpp"
#include "flow/patterns.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/torus.hpp"

namespace hxmesh::collectives {

namespace {

// Maps grid-coordinate rings to rank rings via an (x, y) -> rank function.
template <typename RankAt>
std::vector<int> coords_to_ranks(const std::vector<Coord>& coords,
                                 RankAt rank_at) {
  std::vector<int> ring;
  ring.reserve(coords.size());
  for (auto [row, col] : coords) ring.push_back(rank_at(col, row));
  return ring;
}

template <typename RankAt>
RingMapping grid_mapping(int rows, int cols, RankAt rank_at) {
  RingMapping m;
  m.planes_simulated = 1;
  if (disjoint_rings_supported(rows, cols)) {
    DisjointRings rings = disjoint_hamiltonian_rings(rows, cols);
    m.rings.push_back(coords_to_ranks(rings.red, rank_at));
    m.rings.push_back(coords_to_ranks(rings.green, rank_at));
  } else {
    m.rings.push_back(coords_to_ranks(ring_order_grid(rows, cols), rank_at));
  }
  return m;
}

// Port-disjoint Hamiltonian cycle pair for a square n x n HyperX. Unlike a
// torus, a HyperX accelerator has two row ports and two column ports (not
// dedicated +/- neighbor links), so the Bae torus rings collide on the
// column ports wherever the "horizontal" ring crosses rows. This pair
// co-locates the two rings' dimension changes on the diagonal so every
// node spends exactly 2 row-port and 2 column-port transmissions:
//   red:   row k visits columns (k-1, k-2, ..., k) descending mod n, then
//          steps down to row k+1 at column k;
//   green: the transpose, column j visits rows (j, j-1, ..., j+1), then
//          steps right to column j+1 at row j+1.
template <typename RankAt>
RingMapping hyperx_mapping(int n, RankAt rank_at) {
  RingMapping m;
  m.planes_simulated = 1;
  std::vector<int> red, green;
  for (int k = 0; k < n; ++k)
    for (int i = 0; i < n; ++i)
      red.push_back(rank_at((k - 1 - i + 2 * n) % n, k));
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      green.push_back(rank_at(j, (j - i + n) % n));
  m.rings.push_back(std::move(red));
  m.rings.push_back(std::move(green));
  return m;
}

}  // namespace

RingMapping build_ring_mapping(const topo::Topology& topology) {
  if (auto* hx = dynamic_cast<const topo::HammingMesh*>(&topology)) {
    const auto& p = hx->params();
    if (p.a == 1 && p.b == 1 && p.x == p.y)
      return hyperx_mapping(p.x, [hx](int gx, int gy) {
        return hx->rank_at(gx, gy);
      });
    return grid_mapping(hx->accel_y(), hx->accel_x(), [hx](int gx, int gy) {
      return hx->rank_at(gx, gy);
    });
  }
  if (auto* t = dynamic_cast<const topo::Torus*>(&topology))
    return grid_mapping(t->params().height, t->params().width,
                        [t](int gx, int gy) { return t->rank_at(gx, gy); });
  // Fat tree / Dragonfly: one bidirectional ring in rank order (consecutive
  // ranks share leaves/routers) on each of the four simulated planes.
  RingMapping m;
  m.planes_simulated = 4;
  std::vector<int> ring(topology.num_endpoints());
  for (int i = 0; i < topology.num_endpoints(); ++i) ring[i] = i;
  m.rings.push_back(std::move(ring));
  return m;
}

MeasuredRing measure_ring(const topo::Topology& topology,
                          flow::FlowSolverConfig config) {
  RingMapping mapping = build_ring_mapping(topology);
  MeasuredRing result;
  result.p = topology.num_endpoints();
  result.directions_total =
      static_cast<int>(mapping.rings.size()) * 2 * mapping.planes_simulated;
  result.injection_bps =
      topology.injection_bandwidth() * mapping.planes_simulated;

  // Concurrent steady-state traffic of all rings in both directions.
  std::vector<flow::Flow> flows;
  for (const auto& ring : mapping.rings) {
    auto f = flow::ring_flows(ring, /*bidirectional=*/true);
    flows.insert(flows.end(), f.begin(), f.end());
  }
  result.converged = engine::FlowEngine(topology, config).solve(flows);
  double min_rate = flows.empty() ? 0.0 : flows.front().rate;
  for (const flow::Flow& f : flows) min_rate = std::min(min_rate, f.rate);
  result.rate_bps = min_rate;

  // Per-step latency from sampled hop distances of the mapping.
  const picoseconds per_hop = kCableLatencyPs + kBufferLatencyPs;
  double dist_sum = 0.0;
  int samples = 0;
  for (const auto& ring : mapping.rings) {
    int n = static_cast<int>(ring.size());
    int stride = std::max(1, n / 128);
    for (int i = 0; i < n; i += stride) {
      dist_sum += topology.hop_distance(ring[i], ring[(i + 1) % n]);
      ++samples;
    }
  }
  double avg_dist = samples ? dist_sum / samples : 1.0;
  result.alpha_s = avg_dist * ps_to_s(per_hop);
  return result;
}

double t_allreduce_rings(const MeasuredRing& ring, double s_bytes) {
  return 2.0 * ring.p * ring.alpha_s +
         2.0 * s_bytes / (ring.directions_total * ring.rate_bps);
}

double t_allreduce_torus2d(const MeasuredRing& ring, double s_bytes) {
  double sqrt_p = std::sqrt(static_cast<double>(ring.p));
  // The paper describes this algorithm as "2x less bandwidth-efficient"
  // than the rings (its row phases keep half the interfaces idle), so the
  // effective per-byte time doubles relative to the ring mapping.
  double beta = 8.0 / (ring.directions_total * ring.rate_bps);
  return 4.0 * sqrt_p * ring.alpha_s +
         s_bytes * beta * (1.0 + 2.0 * sqrt_p) / (4.0 * sqrt_p);
}

double allreduce_fraction_of_peak(const MeasuredRing& ring, double s_bytes,
                                  bool torus_algorithm) {
  double t = torus_algorithm ? t_allreduce_torus2d(ring, s_bytes)
                             : t_allreduce_rings(ring, s_bytes);
  double achieved = s_bytes / t;
  double optimum = ring.injection_bps / 2.0;
  return achieved / optimum;
}

}  // namespace hxmesh::collectives
