#include "engine/flow_engine.hpp"

#include <stdexcept>

namespace hxmesh::engine {

FlowEngine::FlowEngine(const topo::Topology& topology,
                       flow::FlowSolverConfig config)
    : SimEngine(topology),
      solver_(topology, flow::scaled_config(topology, config)) {}

RunResult FlowEngine::run(const flow::TrafficSpec& spec) {
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
  throw std::invalid_argument("FlowEngine: bad pattern kind");
}

RunResult FlowEngine::run_point_to_point(const flow::TrafficSpec& spec) {
  RunResult result;
  std::vector<flow::Flow> flows =
      flow::make_flows(spec, topology_.num_endpoints());
  result.numerics_ok = solver_.solve(flows, spec.route);
  result.flow_count = flows.size();
  result.rate_summary = summarize_rates(flows);
  result.aggregate_fraction =
      result.rate_summary.mean / topology_.injection_bandwidth();
  if (result.rate_summary.min > 0)
    result.completion_s =
        static_cast<double>(spec.message_bytes) / result.rate_summary.min;
  return result;
}

RunResult FlowEngine::run_alltoall(const flow::TrafficSpec& spec) {
  const int n = topology_.num_endpoints();
  const collectives::MeasuredAlltoall a2a =
      collectives::measure_alltoall(solver_, n, spec.samples, spec.route);
  RunResult result;
  result.numerics_ok = a2a.converged;
  result.rate_summary = a2a.rates;
  result.aggregate_fraction =
      result.rate_summary.mean / topology_.injection_bandwidth();
  result.alpha_s = a2a.alpha_s;
  if (result.rate_summary.mean > 0)
    result.completion_s =
        (n - 1) * (result.alpha_s + static_cast<double>(spec.message_bytes) /
                                        result.rate_summary.mean);
  return result;
}

RunResult FlowEngine::run_allreduce(const flow::TrafficSpec& spec) {
  const std::size_t m = static_cast<std::size_t>(spec.route);
  if (!ring_measured_[m]) {
    flow::FlowSolverConfig config = solver_.config();
    config.route = spec.route;
    ring_[m] = collectives::measure_ring(topology_, config);
    ring_measured_[m] = true;
  }
  const collectives::MeasuredRing& ring = ring_[m];
  RunResult result;
  double s_bytes = static_cast<double>(spec.message_bytes);
  result.completion_s = spec.torus_algorithm
                            ? collectives::t_allreduce_torus2d(ring, s_bytes)
                            : collectives::t_allreduce_rings(ring, s_bytes);
  result.fraction_of_peak = collectives::allreduce_fraction_of_peak(
      ring, s_bytes, spec.torus_algorithm);
  result.alpha_s = ring.alpha_s;
  result.rate_summary = summarize({ring.rate_bps});
  result.aggregate_fraction = ring.rate_bps / topology_.injection_bandwidth();
  result.numerics_ok = ring.converged;
  return result;
}

}  // namespace hxmesh::engine
