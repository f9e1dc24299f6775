// SimEngine: one interface over the paper's two evaluation paths.
//
// The paper produces every result twice: a steady-state max-min flow
// solver for bandwidth at scale (Table II, Figures 11-13/17) and a
// packet-level simulator for timing fidelity at small scale (Appendix F).
// A SimEngine runs one TrafficSpec on one of those backends and reports a
// uniform RunResult, so benches, examples, and cross-validation tests pick
// a backend by name instead of hand-rolling two code paths.
#pragma once

/// \file
/// \brief SimEngine — one interface over the paper's two evaluation paths
/// (flow-level solver, packet-level simulator) — and its uniform
/// RunResult.

#include <cstdint>
#include <memory>
#include <string>

#include "core/stats.hpp"
#include "flow/patterns.hpp"
#include "topo/topology.hpp"

namespace hxmesh::engine {

/// Uniform result of running one TrafficSpec on one backend. Fields a
/// backend cannot produce stay at their defaults (documented per field).
/// A result is a summary: every number the paper reports per scenario is
/// a rate quantile or a fraction, so the per-flow rates stay inside the
/// engine that computed them.
struct RunResult {
  /// Number of flows of point-to-point kinds (kShift, kPermutation,
  /// kRing). 0 for collective kinds.
  std::uint64_t flow_count = 0;
  /// Summary over the per-flow achieved rates [bytes/s] (or the sampled
  /// ensemble's rates for kAlltoall on the flow engine).
  Summary rate_summary;
  /// Mean achieved per-flow rate as a fraction of one plane's injection
  /// bandwidth — the "% of injection" metric of Table II.
  double aggregate_fraction = 0.0;
  /// Wall-clock seconds to complete the spec'd bytes. Flow engine: derived
  /// from steady-state rates (plus alpha terms for collectives); packet
  /// engine: simulated time.
  double completion_s = 0.0;
  /// Per-step latency estimate [s] for collective kinds; 0 otherwise.
  double alpha_s = 0.0;
  /// kAllreduce: achieved bandwidth S/T as a fraction of the optimum
  /// (injection/2) — the "% of peak" metric of Table II and Figs. 13/17.
  double fraction_of_peak = 0.0;
  /// Packet engine: all messages delivered and (for kAllreduce and
  /// kAlltoall) the float payloads verified. Flow engine: every max-min
  /// solve behind the row converged (each alltoall shift; the measured
  /// ring for kAllreduce).
  bool numerics_ok = true;
};

class SimEngine {
 public:
  virtual ~SimEngine() = default;

  /// Name of the backend ("flow", "packet").
  virtual std::string name() const = 0;

  /// Executes one scenario. Engines are stateful only in caches; run() may
  /// be called repeatedly with different specs.
  virtual RunResult run(const flow::TrafficSpec& spec) = 0;

  const topo::Topology& topology() const { return topology_; }

 protected:
  explicit SimEngine(const topo::Topology& topology) : topology_(topology) {}

  const topo::Topology& topology_;
};

/// Summary over a flow list's achieved rates (shared by the adapters).
inline Summary summarize_rates(const std::vector<flow::Flow>& flows) {
  std::vector<double> rates;
  rates.reserve(flows.size());
  for (const flow::Flow& f : flows) rates.push_back(f.rate);
  return summarize(std::move(rates));
}

}  // namespace hxmesh::engine
