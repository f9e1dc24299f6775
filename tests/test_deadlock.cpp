// Channel-dependency-graph deadlock analysis (Section IV-C3).
//
// The headline property test of the paper's routing argument: fully
// adaptive minimal routing on HammingMesh boards admits a channel cycle,
// while the paper's north-last turn restriction (with VCs escalating on
// every board-to-rail injection) makes the dependency graph acyclic.
#include <gtest/gtest.h>

#include "deadlock.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/faults.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/hyperx.hpp"
#include "topo/torus.hpp"

namespace hxmesh::routing {
namespace {

// Dimension-ordered (x before y) switch-level turn filter for HyperX —
// the restriction real HyperX deployments impose on minimal routing.
TurnFilter hyperx_dor(const topo::HyperX& hx) {
  return [&hx](topo::NodeId, int dst, topo::LinkId out) {
    const auto& l = hx.graph().link(out);
    if (hx.graph().kind(l.src) != topo::NodeKind::kSwitch ||
        hx.graph().kind(l.dst) != topo::NodeKind::kSwitch)
      return true;
    int s1 = static_cast<int>(l.src), s2 = static_cast<int>(l.dst);
    bool is_column_hop = s1 % hx.params().x == s2 % hx.params().x;
    if (!is_column_hop) return true;
    int dst_col = (dst / hx.params().endpoints_per_switch) % hx.params().x;
    return s1 % hx.params().x == dst_col;
  };
}

TEST(Deadlock, FatTreeUpDownIsDeadlockFree) {
  // Up/down routing on a tree needs no turn restriction at all.
  topo::FatTree ft({.num_endpoints = 128, .radix = 64, .taper = 1.0});
  auto report = analyze(ft, 3);
  EXPECT_TRUE(report.deadlock_free);
  EXPECT_GT(report.dependencies, 0u);
}

TEST(Deadlock, HyperXFullyAdaptiveIsCyclicButDimensionOrderIsFree) {
  // Fully adaptive minimal routing on HyperX mixes row-then-column with
  // column-then-row paths, closing switch-level cycles — real HyperX
  // deployments impose dimension order (or per-dimension VCs).
  topo::HyperX hx({.x = 4, .y = 4});
  EXPECT_FALSE(analyze(hx, 3).deadlock_free);
  // Dimension-ordered (x before y) turn filter restores acyclicity.
  TurnFilter dor = [&hx](topo::NodeId, int dst, topo::LinkId out) {
    const auto& l = hx.graph().link(out);
    if (hx.graph().kind(l.src) != topo::NodeKind::kSwitch ||
        hx.graph().kind(l.dst) != topo::NodeKind::kSwitch)
      return true;
    // Switch ids are dense and precede endpoints in construction order.
    int s1 = static_cast<int>(l.src), s2 = static_cast<int>(l.dst);
    bool is_column_hop = s1 % hx.params().x == s2 % hx.params().x;
    if (!is_column_hop) return true;
    // Column hops only once the packet is in the destination's column.
    int dst_col = (dst / hx.params().endpoints_per_switch) % hx.params().x;
    return s1 % hx.params().x == dst_col;
  };
  EXPECT_TRUE(analyze(hx, 3, dor).deadlock_free);
}

TEST(Deadlock, FullyAdaptiveOnBoardsHasChannelCycle) {
  // Unrestricted minimal-adaptive routing can turn every corner of a board
  // mesh, closing a cycle of channel dependencies — the hazard north-last
  // exists to break. (Large credit buffers make it astronomically unlikely
  // in practice, which is why the packet simulator still completes.)
  topo::HammingMesh hx({.a = 4, .b = 4, .x = 2, .y = 2});
  auto report = analyze(hx, 3);
  EXPECT_FALSE(report.deadlock_free);
  EXPECT_FALSE(report.cycle.empty());
}

TEST(Deadlock, NorthLastWithVcEscalationIsDeadlockFree) {
  for (auto p : {topo::HxMeshParams{.a = 4, .b = 4, .x = 2, .y = 2},
                 topo::HxMeshParams{.a = 2, .b = 2, .x = 3, .y = 3},
                 topo::HxMeshParams{.a = 3, .b = 2, .x = 2, .y = 2}}) {
    topo::HammingMesh hx(p);
    auto report = analyze(hx, 3, north_last_filter(hx));
    EXPECT_TRUE(report.deadlock_free) << hx.name();
  }
}

TEST(Deadlock, SingleVcOnBoardsStillCyclesEvenNorthLast) {
  // The VC escalation matters too: with one VC, the cross-rail round trips
  // re-enter boards on the same channel and can still close a cycle.
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 3, .y = 3});
  auto with_vcs = analyze(hx, 3, north_last_filter(hx));
  auto single_vc = analyze(hx, 1, north_last_filter(hx));
  EXPECT_TRUE(with_vcs.deadlock_free);
  // One VC may or may not cycle depending on rail structure; at minimum it
  // must have strictly fewer channels and no more guarantees.
  EXPECT_LT(single_vc.channels, with_vcs.channels);
}

TEST(Deadlock, ReportCountsArePlausible) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  auto report = analyze(hx, 3, north_last_filter(hx));
  EXPECT_EQ(report.channels, hx.graph().num_links() * 3);
  EXPECT_GT(report.dependencies, hx.graph().num_links());
}

// ------------------------------------ two-phase Valiant/UGAL (nonminimal) --

// The shipped nonminimal scheme — each Valiant leg routed minimally in its
// own half of a 2*num_vcs channel space, hand-off strictly phase-0 into
// phase-1 — must be accepted wherever the per-leg minimal rule is itself
// acyclic: fat tree (up/down needs no filter), HammingMesh under
// north-last, and HyperX under dimension order.
TEST(DeadlockNonminimal, TwoPhaseSchemeAcceptedWhereMinimalIsFree) {
  topo::FatTree ft({.num_endpoints = 128, .radix = 64, .taper = 1.0});
  auto ft_report = analyze_nonminimal(ft, 3);
  EXPECT_TRUE(ft_report.deadlock_free);
  EXPECT_EQ(ft_report.channels, ft.graph().num_links() * 6);  // 2 phases
  EXPECT_GT(ft_report.dependencies, analyze(ft, 3).dependencies)
      << "transit edges missing: the hand-off must add dependencies";

  topo::HammingMesh hx({.a = 2, .b = 2, .x = 3, .y = 3});
  EXPECT_TRUE(analyze_nonminimal(hx, 3, north_last_filter(hx)).deadlock_free);

  topo::HyperX hyx({.x = 4, .y = 4});
  EXPECT_TRUE(analyze_nonminimal(hyx, 3, hyperx_dor(hyx)).deadlock_free);
}

// Across every family, the phase separation itself must never introduce a
// cycle: the two-phase graph is acyclic exactly when one minimal leg is.
// (Torus and dragonfly minimal rings are cyclic in this model — they ship
// datelines in real deployments — and stay so; the scheme adds nothing.)
TEST(DeadlockNonminimal, PhaseSeparationNeverAddsCycles) {
  topo::FatTree ft({.num_endpoints = 128, .radix = 64, .taper = 1.0});
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 3, .y = 3});
  topo::HyperX hyx({.x = 4, .y = 4});
  topo::Torus torus({.width = 4, .height = 4});
  topo::Dragonfly df({.routers_per_group = 4, .endpoints_per_router = 2,
                      .global_per_router = 2, .groups = 5});
  const topo::Topology* families[] = {&ft, &hx, &hyx, &torus, &df};
  for (const topo::Topology* t : families) {
    const bool minimal_free = analyze(*t, 3).deadlock_free;
    auto nm = analyze_nonminimal(*t, 3);
    EXPECT_EQ(nm.deadlock_free, minimal_free) << t->name();
    if (!nm.deadlock_free) EXPECT_FALSE(nm.cycle.empty()) << t->name();
  }
}

// Negative control: collapsing both Valiant legs onto one VC range — the
// deliberately broken rule — chains leg-1 and leg-2 paths into composite
// walks that violate the per-leg turn model and must report a cycle
// everywhere the separated scheme is accepted.
TEST(DeadlockNonminimal, CollapsedPhasesAreRejected) {
  topo::FatTree ft({.num_endpoints = 128, .radix = 64, .taper = 1.0});
  auto ft_report = analyze_nonminimal(ft, 3, nullptr, false);
  EXPECT_FALSE(ft_report.deadlock_free);
  EXPECT_FALSE(ft_report.cycle.empty());

  topo::HammingMesh hx({.a = 2, .b = 2, .x = 3, .y = 3});
  EXPECT_FALSE(
      analyze_nonminimal(hx, 3, north_last_filter(hx), false).deadlock_free);

  topo::HyperX hyx({.x = 4, .y = 4});
  EXPECT_FALSE(
      analyze_nonminimal(hyx, 3, hyperx_dor(hyx), false).deadlock_free);
}

// Degraded fabrics analyze over the surviving links only: knocked-out
// links contribute no channels a packet could hold, so the two-phase
// scheme stays accepted on a faulted HammingMesh.
TEST(DeadlockNonminimal, FaultedFabricStaysAccepted) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 3, .y = 3});
  hx.apply_faults(topo::FaultSpec::parse("faults=links:2:seed=3"));
  ASSERT_GT(hx.graph().num_failed_links(), 0u);
  auto healthy = [] {
    topo::HammingMesh h({.a = 2, .b = 2, .x = 3, .y = 3});
    return analyze_nonminimal(h, 3, north_last_filter(h));
  }();
  auto degraded = analyze_nonminimal(hx, 3, north_last_filter(hx));
  EXPECT_TRUE(degraded.deadlock_free);
  EXPECT_LT(degraded.dependencies, healthy.dependencies)
      << "failed links still contribute dependencies";
}

}  // namespace
}  // namespace hxmesh::routing
