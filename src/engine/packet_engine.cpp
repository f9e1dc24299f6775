#include "engine/packet_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "collectives/models.hpp"
#include "collectives/runtime.hpp"
#include "sim/minimpi.hpp"

namespace hxmesh::engine {

namespace {

// 4-byte words of a per-rank/per-peer message. The MiniMPI collectives
// take int word counts; multi-GiB packet-level collectives are out of
// this engine's scope (that is what the flow engine is for), so oversized
// specs fail loudly instead of overflowing into a tiny silent message.
int payload_elems(std::uint64_t message_bytes) {
  std::uint64_t elems = std::max<std::uint64_t>(1, message_bytes / sizeof(float));
  if (elems > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
    throw std::invalid_argument(
        "PacketEngine: message_bytes too large for packet-level simulation");
  return static_cast<int>(elems);
}

// Per-run sim config: the spec's routing mode and seed are scenario
// properties, not engine construction parameters.
sim::PacketSimConfig routed_config(sim::PacketSimConfig config,
                                   const flow::TrafficSpec& spec) {
  config.route_mode = spec.route;
  config.route_seed = spec.seed;
  return config;
}

}  // namespace

PacketEngine::PacketEngine(const topo::Topology& topology,
                           sim::PacketSimConfig config)
    : SimEngine(topology), config_(config) {}

RunResult PacketEngine::run(const flow::TrafficSpec& spec) {
  switch (spec.kind) {
    case flow::PatternKind::kShift:
    case flow::PatternKind::kPermutation:
    case flow::PatternKind::kRing:
      return run_point_to_point(spec);
    case flow::PatternKind::kAlltoall:
      return run_alltoall(spec);
    case flow::PatternKind::kAllreduce:
      return run_allreduce(spec);
  }
  throw std::invalid_argument("PacketEngine: bad pattern kind");
}

RunResult PacketEngine::run_point_to_point(const flow::TrafficSpec& spec) {
  RunResult result;
  std::vector<flow::Flow> flows =
      flow::make_flows(spec, topology_.num_endpoints());
  sim::PacketSim sim(topology_, routed_config(config_, spec));
  // The destination set is known before any message is queued, so the
  // route tables (the expensive per-destination setup) build in parallel.
  std::vector<int> dsts;
  dsts.reserve(flows.size());
  for (const flow::Flow& f : flows)
    if (f.src != f.dst) dsts.push_back(f.dst);
  sim.prebuild_routes(dsts);
  std::vector<picoseconds> delivered(flows.size(), 0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const flow::Flow& f = flows[i];
    if (f.src == f.dst) continue;
    sim.send_message(f.src, f.dst, spec.message_bytes,
                     [&sim, &delivered, i] { delivered[i] = sim.now(); });
  }
  picoseconds end = sim.run();
  result.completion_s = ps_to_s(end);
  result.numerics_ok = sim.unfinished_messages() == 0;
  for (std::size_t i = 0; i < flows.size(); ++i)
    flows[i].rate = delivered[i] > 0
                        ? static_cast<double>(spec.message_bytes) /
                              ps_to_s(delivered[i])
                        : 0.0;
  result.flow_count = flows.size();
  result.rate_summary = summarize_rates(flows);
  result.aggregate_fraction =
      result.rate_summary.mean / topology_.injection_bandwidth();
  return result;
}

RunResult PacketEngine::run_alltoall(const flow::TrafficSpec& spec) {
  const int n = topology_.num_endpoints();
  const int words = payload_elems(spec.message_bytes);
  sim::MiniMpi mpi(topology_, routed_config(config_, spec));
  std::vector<int> ranks(n);
  std::iota(ranks.begin(), ranks.end(), 0);
  mpi.sim().prebuild_routes(ranks);  // every rank receives in an alltoall
  bool blocks_ok = false;
  picoseconds t = collectives::run_alltoall(mpi, ranks, words, &blocks_ok);
  RunResult result;
  result.completion_s = ps_to_s(t);
  result.numerics_ok = mpi.sim().unfinished_messages() == 0 && blocks_ok;
  double sent_per_rank =
      static_cast<double>(n - 1) * words * sizeof(float);
  if (result.completion_s > 0) {
    double rate = sent_per_rank / result.completion_s;
    result.rate_summary = summarize({rate});
    result.aggregate_fraction = rate / topology_.injection_bandwidth();
  }
  return result;
}

RunResult PacketEngine::run_allreduce(const flow::TrafficSpec& spec) {
  const int n = topology_.num_endpoints();
  const int words = payload_elems(spec.message_bytes);
  sim::MiniMpi mpi(topology_, routed_config(config_, spec));
  collectives::RingMapping mapping = collectives::build_ring_mapping(topology_);
  {
    // Ring steps make every rank a receive destination eventually.
    std::vector<int> ranks(n);
    std::iota(ranks.begin(), ranks.end(), 0);
    mpi.sim().prebuild_routes(ranks);
  }
  // The witnesses prove every rank ends with every rank's contribution.
  bool reduced = false;
  picoseconds t = 0;
  if (spec.torus_algorithm) {
    auto grid = collectives::rank_grid(topology_);
    if (grid.empty())
      throw std::invalid_argument(
          "PacketEngine: torus allreduce needs a 2D accelerator grid");
    t = collectives::run_allreduce_torus2d(mpi, grid, words, &reduced);
  } else if (mapping.rings.size() >= 2) {
    t = collectives::run_allreduce_two_rings(mpi, mapping.rings[0],
                                             mapping.rings[1], words,
                                             &reduced);
  } else {
    t = collectives::run_allreduce_bidir(mpi, mapping.rings[0], words,
                                         &reduced);
  }

  RunResult result;
  result.completion_s = ps_to_s(t);
  result.numerics_ok = mpi.sim().unfinished_messages() == 0 && reduced;
  double s_bytes = static_cast<double>(words) * sizeof(float);
  if (result.completion_s > 0) {
    double achieved = s_bytes / result.completion_s;
    result.fraction_of_peak =
        achieved / (topology_.injection_bandwidth() / 2.0);
    result.rate_summary = summarize({achieved});
  }
  return result;
}

}  // namespace hxmesh::engine
