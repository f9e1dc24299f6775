// ExperimentHarness and its concurrency substrate: thread-pool
// correctness, thread-count-independent sweep results (the JSON rows of a
// 4-thread grid must equal a 1-thread grid's), and the regression test for
// the Topology::dist_field cache, which a parallel sweep hammers from many
// threads at once.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <thread>

#include "core/counters.hpp"
#include "core/thread_pool.hpp"
#include "engine/flow_engine.hpp"
#include "engine/harness.hpp"
#include "engine/result_cache.hpp"
#include "topo/hammingmesh.hpp"

namespace hxmesh {
namespace {

// -------------------------------------------------------------- pool ------
TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  bool inline_ok = true;
  pool.parallel_for(16, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) inline_ok = false;
  });
  EXPECT_TRUE(inline_ok);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  // The pool must survive a throwing batch.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

// ------------------------------------------------- dist_field threading ---
// Regression test: the lazily-filled BFS cache used to be a data race
// under any parallel sweep. Hammer one Topology from many threads and
// check every answer against a privately computed field.
TEST(TopologyThreading, DistFieldSafeUnderConcurrentAccess) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  const int n = hx.num_endpoints();

  // Ground truth, computed without the cache.
  std::vector<std::vector<std::int32_t>> truth;
  for (int dst = 0; dst < n; ++dst)
    truth.push_back(hx.graph().dist_to(hx.endpoint_node(dst)));

  ThreadPool pool(8);
  std::atomic<int> mismatches{0};
  pool.parallel_for(512, [&](std::size_t job) {
    Rng rng(job);
    std::vector<topo::LinkId> path;
    for (int iter = 0; iter < 50; ++iter) {
      int dst = static_cast<int>(rng.uniform(n));
      auto field = hx.dist_field(hx.endpoint_node(dst));
      // The handed-out field must stay intact even if other threads evict
      // and refill the cache underneath.
      for (int src = 0; src < n; ++src)
        if ((*field)[hx.endpoint_node(src)] !=
            truth[dst][hx.endpoint_node(src)])
          mismatches.fetch_add(1);
      int src = static_cast<int>(rng.uniform(n));
      if (src != dst) {
        hx.sample_path_stratified(src, dst, iter % 8, 8, rng, path);
        if (static_cast<int>(path.size()) != hx.hop_distance(src, dst))
          mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------------ harness -----
engine::SweepConfig small_grid() {
  engine::SweepConfig sweep;
  sweep.topologies = {"hx2mesh:4x4", "torus:8x8", "fattree:64"};
  sweep.engines = {"flow", "packet"};
  flow::TrafficSpec shift;
  shift.kind = flow::PatternKind::kShift;
  shift.shift = 3;
  shift.message_bytes = 256 * KiB;
  flow::TrafficSpec perm;
  perm.kind = flow::PatternKind::kPermutation;
  perm.message_bytes = 256 * KiB;
  sweep.patterns = {shift, perm};
  sweep.seeds = {1, 2};
  return sweep;
}

TEST(Harness, GridShapeAndOrdering) {
  engine::ExperimentHarness harness(2);
  auto sweep = small_grid();
  auto rows = harness.run_grid(sweep, {"a", "b", "c"});
  ASSERT_EQ(rows.size(), 3u * 2 * 2 * 2);
  // Topology-major, then engine, pattern, seed.
  EXPECT_EQ(rows[0].topology, "hx2mesh:4x4");
  EXPECT_EQ(rows[0].label, "a");
  EXPECT_EQ(rows[0].engine, "flow");
  EXPECT_EQ(rows[0].seed, 1u);
  EXPECT_EQ(rows[1].seed, 2u);
  EXPECT_EQ(rows[4].engine, "packet");
  EXPECT_EQ(rows[8].topology, "torus:8x8");
  EXPECT_EQ(rows[8].label, "b");
}

TEST(Harness, EmptySeedAxisInheritsPatternSeeds) {
  engine::ExperimentHarness harness(1);
  engine::SweepConfig sweep;
  sweep.topologies = {"hx2mesh:2x2"};
  sweep.seeds.clear();  // no axis: each pattern's own seed applies
  flow::TrafficSpec a = flow::parse_traffic("perm:seed=5:msg=64KiB");
  flow::TrafficSpec b = flow::parse_traffic("perm:seed=6:msg=64KiB");
  sweep.patterns = {a, b};
  auto rows = harness.run_grid(sweep);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].seed, 5u);
  EXPECT_EQ(rows[1].seed, 6u);
  EXPECT_NE(engine::row_json(rows[0]).find("\"seed\":5"), std::string::npos);
}

TEST(Harness, MismatchedLabelsThrowWithBothSizes) {
  engine::ExperimentHarness harness(1);
  auto sweep = small_grid();  // 3 topologies
  try {
    harness.run_grid(sweep, {"only", "two"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 labels"), std::string::npos) << what;
    EXPECT_NE(what.find("3 topologies"), std::string::npos) << what;
  }
}

// The acceptance check of this refactor: a 4-thread sweep produces exactly
// the rows of a 1-thread sweep.
TEST(Harness, FourThreadGridMatchesOneThreadGrid) {
  auto sweep = small_grid();
  auto rows1 = engine::ExperimentHarness(1).run_grid(sweep);
  auto rows4 = engine::ExperimentHarness(4).run_grid(sweep);
  ASSERT_EQ(rows1.size(), rows4.size());
  for (std::size_t i = 0; i < rows1.size(); ++i)
    EXPECT_EQ(engine::row_json(rows1[i]), engine::row_json(rows4[i])) << i;
}

// `--threads N` must bound the flow solver's pool too: the harness hands
// its width to every flow engine it builds.
TEST(Harness, FlowEnginesInheritTheHarnessWidth) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  for (int width : {1, 3}) {
    engine::ExperimentHarness harness(width);
    auto eng = harness.make_engine("flow", hx);
    const auto* flow = dynamic_cast<const engine::FlowEngine*>(eng.get());
    ASSERT_NE(flow, nullptr);
    EXPECT_EQ(flow->config().threads, width);
  }
}

// ----------------------------------------------- batched execution -------
TEST(Harness, BatchedDuplicateSpecsBuildOnce) {
  // Two grids sharing a topology spec: batched execution must build the
  // shared topology once (the counters prove it) while the rows stay
  // byte-identical to independent per-grid runs.
  engine::SweepConfig a;
  a.topologies = {"hx2mesh:4x4", "torus:8x8"};
  a.patterns = {flow::parse_traffic("perm:msg=256KiB")};
  a.seeds = {1, 2};
  engine::SweepConfig b;
  b.topologies = {"hx2mesh:4x4"};  // duplicate of a's first spec
  b.patterns = {flow::parse_traffic("shift:3:msg=256KiB")};
  b.seeds = {1};

  const counters::Map before = counters::snapshot();
  engine::ExperimentHarness harness(2);
  auto rows = harness.run_grids({{a, {}}, {b, {}}});
  const counters::Map moved = counters::delta(before, counters::snapshot());

  // 3 (grid, topology) slots but 2 distinct specs: one build saved; the
  // duplicate's job also reuses the group's engine instance.
  EXPECT_EQ(moved.at("batch.topo_groups"), 2u);
  EXPECT_EQ(moved.at("batch.topo_builds_saved"), 1u);
  EXPECT_EQ(moved.at("batch.engine_groups"), 2u);
  EXPECT_EQ(moved.at("batch.engines_saved"), 1u);
  EXPECT_EQ(moved.at("batch.cells_executed"), rows.size());

  auto rows_a = engine::ExperimentHarness(1).run_grid(a);
  auto rows_b = engine::ExperimentHarness(1).run_grid(b);
  ASSERT_EQ(rows.size(), rows_a.size() + rows_b.size());
  for (std::size_t i = 0; i < rows_a.size(); ++i)
    EXPECT_EQ(engine::row_json(rows[i]), engine::row_json(rows_a[i])) << i;
  for (std::size_t i = 0; i < rows_b.size(); ++i)
    EXPECT_EQ(engine::row_json(rows[rows_a.size() + i]),
              engine::row_json(rows_b[i]))
        << i;
}

TEST(Harness, FailingCellDrainsSiblingsAndNamesCell) {
  // A pattern invalid for the topology fails its cell at run time; the
  // sibling cells of the same topology group must still execute and land
  // in the cache, and the rethrow must name the failing cell and keep the
  // invalid_argument category (the CLI's exit-2 contract).
  engine::SweepConfig sweep;
  sweep.topologies = {"hx2mesh:2x2"};
  sweep.patterns = {flow::parse_traffic("perm:msg=64KiB"),
                    flow::parse_traffic("ring:ranks=0,999"),
                    flow::parse_traffic("shift:1:msg=64KiB")};
  sweep.seeds = {1};

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "harness_cell_error")
          .string();
  std::filesystem::remove_all(dir);
  engine::ResultCache cache(dir);
  engine::ExperimentHarness harness(2);
  try {
    harness.run_grids({{sweep, {}}}, &cache);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cell 1"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
  // Both siblings of the failing cell were executed and stored.
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(Harness, MapPreservesIndexOrder) {
  engine::ExperimentHarness harness(4);
  auto out = harness.map<int>(100, [](std::size_t i) {
    return static_cast<int>(i * i);
  });
  for (int i = 0; i < 100; ++i) ASSERT_EQ(out[i], i * i);
}

TEST(Harness, RowJsonIsWellFormedish) {
  engine::ExperimentHarness harness(1);
  engine::SweepConfig sweep;
  sweep.topologies = {"hx2mesh:2x2"};
  flow::TrafficSpec spec;
  spec.kind = flow::PatternKind::kShift;
  sweep.patterns = {spec};
  auto rows = harness.run_grid(sweep);
  ASSERT_EQ(rows.size(), 1u);
  std::string json = engine::row_json(rows[0]);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"topology\":\"hx2mesh:2x2\""), std::string::npos);
  EXPECT_NE(json.find("\"pattern\":\"shift:1\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_bps\":"), std::string::npos);
}

}  // namespace
}  // namespace hxmesh
