#include "engine/packet_engine.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "collectives/models.hpp"
#include "collectives/runtime.hpp"
#include "sim/minimpi.hpp"

namespace hxmesh::engine {

namespace {

// Float elements of a per-rank/per-peer payload. The MiniMPI collectives
// take int element counts; multi-GiB packet-level collectives are out of
// this engine's scope (that is what the flow engine is for), so oversized
// specs fail loudly instead of overflowing into a tiny silent payload.
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

// The allreduce's per-rank float buffers (ranks x message bytes: 256 MiB
// for 256 ranks at 1 MiB) are the largest allocation a packet cell makes.
// A sweep runs cells of different topology groups on different threads,
// so without a bound its peak RSS would be set by how many of these cells
// happen to overlap, which changes from run to run. The process-wide
// budget admits a cell's buffers only while the admitted total stays
// within kRankBufferBudget; a cell waits until others release theirs, and
// one alone is always admitted, so no cell waits forever. The lease is
// declared before the buffers, so they are freed before it is released;
// glibc keeps freed blocks of a thread's arena resident, so the release
// trims the heap first; otherwise the next admitted cell, on another
// thread, would add its buffers on top of those still held. Buffers
// under kRankBufferFloor cannot move the peak and take no lease, so small
// cells never wait and never stall other threads' allocations in a trim.
constexpr std::uint64_t kRankBufferBudget = std::uint64_t{512} << 20;
constexpr std::uint64_t kRankBufferFloor = std::uint64_t{64} << 20;

class RankBufferLease {
 public:
  explicit RankBufferLease(std::uint64_t bytes)
      : bytes_(bytes < kRankBufferFloor ? 0 : bytes) {
    if (bytes_ == 0) return;
    std::unique_lock lock(mutex_);
    admitted_.wait(lock, [&] {
      return in_use_ == 0 || in_use_ + bytes_ <= kRankBufferBudget;
    });
    in_use_ += bytes_;
  }
  ~RankBufferLease() {
    if (bytes_ == 0) return;
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    {
      std::lock_guard lock(mutex_);
      in_use_ -= bytes_;
    }
    admitted_.notify_all();
  }
  RankBufferLease(const RankBufferLease&) = delete;
  RankBufferLease& operator=(const RankBufferLease&) = delete;

 private:
  std::uint64_t bytes_;
  static inline std::mutex mutex_;
  static inline std::condition_variable admitted_;
  static inline std::uint64_t in_use_ = 0;
};

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
  const int elems = payload_elems(spec.message_bytes);
  sim::MiniMpi mpi(topology_, routed_config(config_, spec));
  std::vector<int> ranks(n);
  std::iota(ranks.begin(), ranks.end(), 0);
  mpi.sim().prebuild_routes(ranks);  // every rank receives in an alltoall
  bool blocks_ok = false;
  picoseconds t = collectives::run_alltoall(mpi, ranks, elems, &blocks_ok);
  RunResult result;
  result.completion_s = ps_to_s(t);
  result.numerics_ok = mpi.sim().unfinished_messages() == 0 && blocks_ok;
  double sent_per_rank =
      static_cast<double>(n - 1) * elems * sizeof(float);
  if (result.completion_s > 0) {
    double rate = sent_per_rank / result.completion_s;
    result.rate_summary = summarize({rate});
    result.aggregate_fraction = rate / topology_.injection_bandwidth();
  }
  return result;
}

RunResult PacketEngine::run_allreduce(const flow::TrafficSpec& spec) {
  const int n = topology_.num_endpoints();
  const int elems = payload_elems(spec.message_bytes);

  // Every rank contributes a constant vector; the reduced value must equal
  // the sum of the constants — numerical proof, not just timing.
  const RankBufferLease lease(static_cast<std::uint64_t>(n) * elems *
                              sizeof(float));
  std::vector<std::vector<float>> data(n);
  float expected = 0.0f;
  for (int r = 0; r < n; ++r) {
    float v = static_cast<float>(r % 7 + 1) * 0.25f;
    data[r].assign(elems, v);
    expected += v;
  }

  sim::MiniMpi mpi(topology_, routed_config(config_, spec));
  collectives::RingMapping mapping = collectives::build_ring_mapping(topology_);
  {
    // Ring steps make every rank a receive destination eventually.
    std::vector<int> ranks(n);
    std::iota(ranks.begin(), ranks.end(), 0);
    mpi.sim().prebuild_routes(ranks);
  }
  picoseconds t = 0;
  if (spec.torus_algorithm) {
    auto grid = collectives::rank_grid(topology_);
    if (grid.empty())
      throw std::invalid_argument(
          "PacketEngine: torus allreduce needs a 2D accelerator grid");
    t = collectives::run_allreduce_torus2d(mpi, grid, data);
  } else if (mapping.rings.size() >= 2) {
    t = collectives::run_allreduce_two_rings(mpi, mapping.rings[0],
                                             mapping.rings[1], data);
  } else {
    t = collectives::run_allreduce_bidir(mpi, mapping.rings[0], data);
  }

  RunResult result;
  result.completion_s = ps_to_s(t);
  result.numerics_ok = mpi.sim().unfinished_messages() == 0;
  for (float v : data[0])
    if (std::abs(v - expected) > 1e-3f * std::abs(expected))
      result.numerics_ok = false;
  double s_bytes = static_cast<double>(elems) * sizeof(float);
  if (result.completion_s > 0) {
    double achieved = s_bytes / result.completion_s;
    result.fraction_of_peak =
        achieved / (topology_.injection_bandwidth() / 2.0);
    result.rate_summary = summarize({achieved});
  }
  return result;
}

}  // namespace hxmesh::engine
