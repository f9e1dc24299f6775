#include "workload/comm_env.hpp"

#include <algorithm>

namespace hxmesh::workload {

namespace {
constexpr int kAlltoallSamples = 8;
}  // namespace

CommEnv::CommEnv(const topo::Topology& topology, flow::FlowSolverConfig config)
    : solver_(topology, flow::scaled_config(topology, config)) {
  plane_factor_ = topology.ports_per_endpoint() == 1 ? 4 : 1;
}

MappedRing CommEnv::measure(
    const std::vector<std::vector<int>>& rings) const {
  MappedRing result;
  if (rings.empty() || rings[0].size() < 2) {
    result.p = rings.empty() ? 0 : 1;
    result.rate_bps = kLinkBandwidthBps;
    return result;
  }
  result.p = static_cast<int>(rings[0].size());
  double dist_sum = 0.0;
  int steps = 0;
  for (const auto& ring : rings) {
    int n = static_cast<int>(ring.size());
    int stride = std::max(1, n / 64);
    for (int i = 0; i < n; i += stride) {
      dist_sum += topology().hop_distance(ring[i], ring[(i + 1) % n]);
      ++steps;
    }
  }
  result.rate_bps = collectives::solve_rings(solver_, rings).min_rate_bps;
  result.alpha_s =
      (steps ? dist_sum / steps : 1.0) * collectives::per_hop_seconds();
  return result;
}

MappedRing CommEnv::rings_consecutive(int n, int group_size) const {
  std::vector<std::vector<int>> rings;
  for (int base = 0; base + group_size <= n; base += group_size) {
    std::vector<int> ring(group_size);
    for (int i = 0; i < group_size; ++i) ring[i] = base + i;
    rings.push_back(std::move(ring));
  }
  return measure(rings);
}

MappedRing CommEnv::rings_strided(int n, int stride) const {
  std::vector<std::vector<int>> rings;
  for (int o = 0; o < stride; ++o) {
    std::vector<int> ring;
    for (int r = o; r < n; r += stride) ring.push_back(r);
    if (ring.size() >= 2) rings.push_back(std::move(ring));
  }
  return measure(rings);
}

collectives::MeasuredAlltoall CommEnv::alltoall(int n) const {
  return collectives::measure_alltoall(solver_, n, kAlltoallSamples,
                                       solver_.config().route);
}

double CommEnv::t_allreduce(const MappedRing& ring, double s_bytes) const {
  if (ring.p <= 1) return 0.0;
  // Bidirectional ring per plane; data split across planes.
  double per_plane = s_bytes / plane_factor_;
  return 2.0 * ring.p * ring.alpha_s + per_plane / ring.rate_bps;
}

double CommEnv::t_p2p(const MappedRing& ring, double s_bytes) const {
  double per_plane = s_bytes / plane_factor_;
  return ring.alpha_s + per_plane / ring.rate_bps;
}

double CommEnv::t_alltoall(int p, double per_pair_bytes) const {
  if (p <= 1) return 0.0;
  // Rates are per plane; the data splits across planes.
  const collectives::MeasuredAlltoall a2a = alltoall(p);
  return (p - 1) *
         (a2a.alpha_s + per_pair_bytes / plane_factor_ / a2a.rates.mean);
}

}  // namespace hxmesh::workload
