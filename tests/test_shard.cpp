// Sharded grid execution: the shard partition covers every cell exactly
// once for awkward shard counts, a sharded run merges byte-identically to
// a single-process run, and manifests round-trip and gate merges.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.hpp"
#include "core/fsio.hpp"
#include "engine/grid_plan.hpp"
#include "engine/harness.hpp"
#include "engine/shard.hpp"

namespace hxmesh {
namespace {

using engine::ExperimentHarness;
using engine::GridPlan;
using engine::GridSpec;
using engine::ResultCache;
using engine::ShardManifest;
using engine::SweepConfig;

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<GridSpec> tiny_grids() {
  SweepConfig a;
  a.topologies = {"hx2mesh:2x2", "torus:4x4"};
  a.engines = {"flow"};
  a.patterns = {flow::parse_traffic("shift:1:msg=64KiB"),
                flow::parse_traffic("perm:msg=64KiB")};
  a.seeds = {1, 2};
  SweepConfig b;  // a second grid with its own axes, exercising multi-grid
  b.topologies = {"hx2mesh:2x2"};
  b.engines = {"flow", "packet"};
  b.patterns = {flow::parse_traffic("allreduce:msg=256KiB")};
  b.seeds = {1};
  return {GridSpec{a, {"alpha", "beta"}}, GridSpec{b, {}}};
}

std::string rows_json(const std::vector<engine::SweepRow>& rows) {
  std::ostringstream out;
  engine::write_json(out, rows);
  return out.str();
}

TEST(GridPlanTest, EnumeratesMultiGridCellsInRowOrder) {
  const auto grids = tiny_grids();
  const GridPlan plan(grids);
  // 2*1*2*2 + 1*2*1*1 cells.
  EXPECT_EQ(plan.total_cells(), 10u);
  EXPECT_EQ(plan.num_jobs(), 4u);       // 2 flow jobs + flow/packet pair
  EXPECT_EQ(plan.num_topo_slots(), 3u); // hx2mesh:2x2 appears per grid

  // The plan's rows must equal the harness's concatenated grid rows.
  ExperimentHarness harness(2);
  const auto rows = harness.run_grids(grids);
  ASSERT_EQ(rows.size(), plan.total_cells());
  for (std::size_t c = 0; c < rows.size(); ++c) {
    const engine::SweepRow row = plan.cell_row(c);
    EXPECT_EQ(row.topology, rows[c].topology) << c;
    EXPECT_EQ(row.label, rows[c].label) << c;
    EXPECT_EQ(row.engine, rows[c].engine) << c;
    EXPECT_EQ(row.seed, rows[c].seed) << c;
    EXPECT_EQ(flow::pattern_spec(row.pattern),
              flow::pattern_spec(rows[c].pattern))
        << c;
  }
  // First grid is labeled, second falls back to the spec.
  EXPECT_EQ(plan.cell_row(0).label, "alpha");
  EXPECT_EQ(plan.cell_row(8).label, "hx2mesh:2x2");

  // Fingerprints: stable for equal grids, different once an axis changes.
  EXPECT_EQ(plan.fingerprint(), GridPlan(tiny_grids()).fingerprint());
  auto other = tiny_grids();
  other[1].config.seeds = {2};
  EXPECT_NE(plan.fingerprint(), GridPlan(other).fingerprint());
}

TEST(GridPlanTest, LabelMismatchThrowsNamingBothSizes) {
  auto grids = tiny_grids();
  grids[0].labels = {"only-one"};
  try {
    GridPlan plan(grids);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 labels"), std::string::npos) << what;
    EXPECT_NE(what.find("2 topologies"), std::string::npos) << what;
  }
}

TEST(ShardExecution, ShardedRunMergesByteIdenticalToSingleProcess) {
  const auto grids = tiny_grids();
  ExperimentHarness harness(2);
  const std::string single = rows_json(harness.run_grids(grids, nullptr));

  const GridPlan plan(grids);
  ResultCache cache(fresh_dir("shard_merge_cache"));
  const unsigned shards = 3;  // does not divide 10 cells
  std::vector<ShardManifest> manifests;
  for (unsigned s = 0; s < shards; ++s)
    manifests.push_back(engine::run_shard(harness, plan, s, shards, cache));
  // The nine flow cells fill shard 0 and the heavy packet cell gets
  // shard 1 to itself, so the merge really joins two blocks.
  ASSERT_EQ(manifests[0].cell_hi, 9u);
  ASSERT_EQ(manifests[1].cell_hi - manifests[1].cell_lo, 1u);

  EXPECT_EQ(engine::merge_error(plan, manifests), "");
  std::uint64_t computed = 0;
  for (const ShardManifest& m : manifests) computed += m.computed;
  EXPECT_EQ(computed, plan.total_cells());

  const auto merged =
      harness.run_cells(plan, 0, plan.total_cells(), &cache);
  EXPECT_EQ(rows_json(merged), single);
  // The merge itself must have been served entirely from the cache.
  EXPECT_EQ(cache.misses(), plan.total_cells());  // only the shard misses
  EXPECT_EQ(cache.hits(), plan.total_cells());

  // A second full sharded pass is all hits, block by block.
  std::uint64_t warm_hits = 0;
  for (unsigned s = 0; s < shards; ++s) {
    const ShardManifest warm =
        engine::run_shard(harness, plan, s, shards, cache);
    EXPECT_EQ(warm.computed, 0u) << s;
    EXPECT_EQ(warm.hits, warm.cell_hi - warm.cell_lo) << s;
    warm_hits += warm.hits;
  }
  EXPECT_EQ(warm_hits, plan.total_cells());
  EXPECT_EQ(cache.misses(), plan.total_cells());  // nothing recomputed
}

TEST(ShardExecution, PartiallyWarmShardRecomputesOnlyUnsoundCells) {
  const auto grids = tiny_grids();
  ExperimentHarness harness(2);
  const std::string single = rows_json(harness.run_grids(grids, nullptr));

  const GridPlan plan(grids);
  const std::string dir = fresh_dir("shard_partial_cache");
  ResultCache cache(dir);
  const ShardManifest cold = engine::run_shard(harness, plan, 0, 2, cache);
  ASSERT_EQ(cold.cell_lo, 0u);
  ASSERT_EQ(cold.cell_hi, 9u);
  ASSERT_EQ(cold.computed, 9u);
  auto entry = [&](std::size_t cell) {
    return dir + "/" + plan.cell_key(cell) + ".json";
  };

  // One corrupt entry in the middle of the block: only that cell is
  // recomputed, every other one counts as a hit.
  const std::optional<std::string> text = read_file(entry(4));
  ASSERT_TRUE(text);
  write_file_atomic(entry(4), text->substr(0, text->size() / 2));
  const std::size_t misses_before = cache.misses();
  ShardManifest warm = engine::run_shard(harness, plan, 0, 2, cache);
  EXPECT_EQ(warm.computed, 1u);
  EXPECT_EQ(warm.hits, 8u);
  EXPECT_EQ(cache.misses() - misses_before, 1u);

  // Two missing entries with sound ones between them: the harness runs
  // the span, but the sound cells inside it are still hits.
  std::filesystem::remove(entry(2));
  std::filesystem::remove(entry(6));
  warm = engine::run_shard(harness, plan, 0, 2, cache);
  EXPECT_EQ(warm.computed, 2u);
  EXPECT_EQ(warm.hits, 7u);
  // The manifest carries the registry delta of exactly this run.
  EXPECT_EQ(warm.counters.at("batch.cells_executed"), 2u);

  // The repaired block merges byte-identically to a single-process run.
  std::vector<ShardManifest> manifests = {
      warm, engine::run_shard(harness, plan, 1, 2, cache)};
  EXPECT_EQ(engine::merge_error(plan, manifests), "");
  EXPECT_EQ(rows_json(harness.run_cells(plan, 0, plan.total_cells(), &cache)),
            single);
}

TEST(ShardManifestTest, RendersAndParsesRoundTrip) {
  ShardManifest manifest;
  manifest.fingerprint = "00ff00ff00ff00ff";
  manifest.shard = 2;
  manifest.shards = 5;
  manifest.cell_lo = 4;
  manifest.cell_hi = 6;
  manifest.hits = 1;
  manifest.computed = 1;
  manifest.keys = {"0123456789abcdef", "fedcba9876543210"};
  manifest.counters = {{"batch.cells_executed", 1},
                       {"routing.oracle_fills", 12},
                       {"cache.quarantined", 0}};

  const ShardManifest parsed =
      engine::parse_manifest(engine::render_manifest(manifest));
  EXPECT_EQ(parsed.fingerprint, manifest.fingerprint);
  EXPECT_EQ(parsed.shard, manifest.shard);
  EXPECT_EQ(parsed.shards, manifest.shards);
  EXPECT_EQ(parsed.cell_lo, manifest.cell_lo);
  EXPECT_EQ(parsed.cell_hi, manifest.cell_hi);
  EXPECT_EQ(parsed.hits, manifest.hits);
  EXPECT_EQ(parsed.computed, manifest.computed);
  EXPECT_EQ(parsed.keys, manifest.keys);
  EXPECT_EQ(parsed.counters, manifest.counters);

  EXPECT_THROW(engine::parse_manifest("[]"), std::invalid_argument);
  EXPECT_THROW(engine::parse_manifest("{\"schema\":99}"),
               std::invalid_argument);
  // A key list that disagrees with the declared range is rejected.
  manifest.keys.pop_back();
  EXPECT_THROW(engine::parse_manifest(engine::render_manifest(manifest)),
               std::invalid_argument);
}

TEST(ShardManifestTest, RejectsSchemaOneAndBadCounters) {
  ShardManifest manifest;
  manifest.fingerprint = "00ff00ff00ff00ff";
  manifest.cell_hi = 1;
  manifest.keys = {"0123456789abcdef"};
  const std::string text = engine::render_manifest(manifest);
  ASSERT_NO_THROW(engine::parse_manifest(text));
  auto with = [&](const std::string& from, const std::string& to) {
    std::string edited = text;
    const std::size_t at = edited.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return edited.replace(at, from.size(), to);
  };

  // A schema-1 manifest (no counters) comes from a stale child.
  EXPECT_THROW(engine::parse_manifest(with("\"schema\":2", "\"schema\":1")),
               std::invalid_argument);
  EXPECT_THROW(engine::parse_manifest(with(",\"counters\":{}", "")),
               std::invalid_argument);
  // Counters are non-negative integers in an object.
  for (const char* bad : {"{\"a\":1.5}", "{\"a\":-1}", "{\"a\":\"1\"}",
                          "[1]"})
    EXPECT_THROW(
        engine::parse_manifest(with("\"counters\":{}",
                                    std::string("\"counters\":") + bad)),
        std::invalid_argument)
        << bad;
}

TEST(ShardMerge, RejectsIncompleteOrForeignManifests) {
  const auto grids = tiny_grids();
  const GridPlan plan(grids);
  ExperimentHarness harness(2);
  ResultCache cache(fresh_dir("shard_reject_cache"));
  std::vector<ShardManifest> manifests;
  for (unsigned s = 0; s < 2; ++s)
    manifests.push_back(engine::run_shard(harness, plan, s, 2, cache));

  EXPECT_EQ(engine::merge_error(plan, manifests), "");

  auto missing = manifests;
  missing.pop_back();
  EXPECT_NE(engine::merge_error(plan, missing), "");

  auto duplicated = manifests;
  duplicated[1] = duplicated[0];
  EXPECT_NE(engine::merge_error(plan, duplicated).find("covered twice"),
            std::string::npos);

  auto foreign = manifests;
  foreign[0].fingerprint = "deadbeefdeadbeef";
  EXPECT_NE(engine::merge_error(plan, foreign).find("fingerprint"),
            std::string::npos);

  // The packet cell outweighs the other nine, so shard 0 holds the nine
  // flow cells and shard 1 the packet cell.
  ASSERT_EQ(manifests[0].keys.size(), 9u);
  auto tampered = manifests;
  tampered[0].keys.back() = "0000000000000000";
  EXPECT_NE(engine::merge_error(plan, tampered).find("key mismatch"),
            std::string::npos);
}

TEST(ShardPartition, CoversExactlyAndBalancesCost) {
  // Mixed flow+packet grid: packet cells carry a 256x engine weight, so
  // the cost-balanced boundaries must land unevenly in cell space.
  SweepConfig config;
  config.topologies = {"hx2mesh:2x2"};
  config.engines = {"flow", "packet"};
  config.patterns = {flow::parse_traffic("shift:1:msg=64KiB"),
                     flow::parse_traffic("perm:msg=64KiB")};
  config.seeds = {1, 2};
  const GridPlan plan({GridSpec{config, {}}});
  ASSERT_EQ(plan.total_cells(), 8u);  // 1 topo x 2 engines x 2 patterns x 2 seeds

  std::uint64_t max_cell_cost = 0, total = 0;
  for (std::size_t c = 0; c < plan.total_cells(); ++c) {
    EXPECT_GE(plan.cell_cost(c), 1u);
    max_cell_cost = std::max(max_cell_cost, plan.cell_cost(c));
    total += plan.cell_cost(c);
  }
  EXPECT_EQ(total, plan.total_cost());
  // Packet cells must dominate flow cells by orders of magnitude. Cells
  // are engine-major within the topology, so cell 4 is the first packet
  // cell.
  EXPECT_GT(plan.cell_cost(4), 100 * plan.cell_cost(0));

  for (unsigned shards : {1u, 2u, 3u, 5u, 8u, 16u, 40u}) {
    std::size_t expect_lo = 0;
    std::uint64_t max_shard_cost = 0;
    for (unsigned s = 0; s < shards; ++s) {
      const auto [lo, hi] = plan.shard_cells(s, shards);
      EXPECT_EQ(lo, expect_lo) << s << "/" << shards;
      EXPECT_LE(lo, hi);
      expect_lo = hi;
      std::uint64_t cost = 0;
      for (std::size_t c = lo; c < hi; ++c) cost += plan.cell_cost(c);
      max_shard_cost = std::max(max_shard_cost, cost);
    }
    EXPECT_EQ(expect_lo, plan.total_cells()) << shards;
    // Cost balance: no shard exceeds its fair share by more than the
    // largest single cell (the indivisible unit).
    EXPECT_LE(max_shard_cost, plan.total_cost() / shards + max_cell_cost)
        << shards;
  }
  EXPECT_THROW(plan.shard_cells(3, 3), std::invalid_argument);
}

TEST(ShardPartition, HeavyLastCellGetsABlockOfItsOwn) {
  // tiny_grids ends in its one packet cell, which carries ~97% of the
  // cost but starts at ~3% of it. A cell joins the block holding most of
  // its cost, so the packet cell must not ride in the flow cells' block.
  const GridPlan plan(tiny_grids());
  const std::size_t last = plan.total_cells() - 1;
  ASSERT_GT(plan.cell_cost(last) * 2, plan.total_cost());
  for (unsigned shards : {2u, 3u, 4u, 8u}) {
    unsigned non_empty = 0;
    for (unsigned s = 0; s < shards; ++s) {
      const auto [lo, hi] = plan.shard_cells(s, shards);
      if (hi > lo) ++non_empty;
      if (lo <= last && last < hi) EXPECT_EQ(lo, last) << s << "/" << shards;
    }
    EXPECT_EQ(non_empty, 2u) << shards;
  }
}

TEST(ShardPartition, EndpointEstimatesScaleWithSpecs) {
  using engine::GridPlan;
  EXPECT_EQ(GridPlan::estimate_endpoints("hx2mesh:16x16"), 1024u);
  EXPECT_EQ(GridPlan::estimate_endpoints("hx4mesh:8x8"), 1024u);
  EXPECT_EQ(GridPlan::estimate_endpoints("hxmesh:2x4:8x8"), 512u);
  EXPECT_EQ(GridPlan::estimate_endpoints("torus:16x16"), 256u);
  EXPECT_GT(GridPlan::estimate_endpoints("hx2mesh:256x256"),
            GridPlan::estimate_endpoints("hx2mesh:2x2"));
  // Fault groups and options do not disturb the dims parse.
  EXPECT_EQ(GridPlan::estimate_endpoints("hx2mesh:4x4:faults=links:0.01"),
            GridPlan::estimate_endpoints("hx2mesh:4x4"));
  // Unknown families still produce a usable (positive) weight.
  EXPECT_GE(GridPlan::estimate_endpoints("mystery:topology"), 1u);
}

TEST(ShardPartition, OverDecomposedRunMergesByteIdentical) {
  const auto grids = tiny_grids();
  ExperimentHarness harness(2);
  const std::string single = rows_json(harness.run_grids(grids, nullptr));

  const GridPlan plan(grids);
  ResultCache cache(fresh_dir("over_decomposed_merge_cache"));
  const unsigned shards = 6;  // over-decomposed relative to 10 cells
  std::vector<ShardManifest> manifests;
  for (unsigned s = 0; s < shards; ++s)
    manifests.push_back(engine::run_shard(harness, plan, s, shards, cache));

  // Shard 0 takes the nine flow cells, shard 3 the packet cell (whose
  // cost midpoint lies just past half the total), and the other four are
  // empty — and the merge still holds: coverage verification is
  // partition-agnostic.
  ASSERT_EQ(manifests[0].cell_hi, 9u);
  ASSERT_EQ(manifests[3].cell_lo, 9u);
  ASSERT_EQ(manifests[3].cell_hi, 10u);
  EXPECT_EQ(engine::merge_error(plan, manifests), "");
  const auto merged = harness.run_cells(plan, 0, plan.total_cells(), &cache);
  EXPECT_EQ(rows_json(merged), single);

  // Coverage holes are still rejected: pull one cell out of a manifest.
  auto holed = manifests;
  for (auto& m : holed)
    if (m.cell_hi > m.cell_lo) {
      m.cell_hi -= 1;
      m.keys.pop_back();
      break;
    }
  EXPECT_NE(engine::merge_error(plan, holed), "");
}

TEST(ShardManifestTest, MalformedDocumentsThrowTypedErrors) {
  // Every malformed manifest must surface as std::invalid_argument — the
  // merge layer catches exactly that type and refuses the merge; a crash
  // here would take the whole sweep down on one bad file.
  ShardManifest good;
  good.fingerprint = "00ff00ff00ff00ff";
  good.shard = 1;
  good.shards = 3;
  good.cell_lo = 2;
  good.cell_hi = 4;
  good.keys = {"0123456789abcdef", "fedcba9876543210"};
  const std::string text = engine::render_manifest(good);

  // Truncated documents (torn writes, partial transfers) at every length.
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, text.size() / 2,
                          text.rfind('}')})
    EXPECT_THROW(engine::parse_manifest(text.substr(0, cut)),
                 std::invalid_argument)
        << "cut at " << cut;

  auto rendered = [&](void (*mutate)(ShardManifest&)) {
    ShardManifest m = good;
    mutate(m);
    return engine::render_manifest(m);
  };
  // Zero shard count, shard index out of range, inverted cell range: all
  // representable in valid JSON, all semantically impossible.
  EXPECT_THROW(engine::parse_manifest(rendered([](ShardManifest& m) {
                 m.shards = 0;
                 m.shard = 0;
               })),
               std::invalid_argument);
  EXPECT_THROW(
      engine::parse_manifest(rendered([](ShardManifest& m) { m.shard = 3; })),
      std::invalid_argument);
  EXPECT_THROW(engine::parse_manifest(rendered([](ShardManifest& m) {
                 m.cell_lo = 5;
                 m.cell_hi = 4;
                 m.keys = {};
               })),
               std::invalid_argument);
  // Non-string entries in the key list.
  std::string doctored = text;
  const auto pos = doctored.find("\"0123456789abcdef\"");
  ASSERT_NE(pos, std::string::npos);
  doctored.replace(pos, 18, "42");
  EXPECT_THROW(engine::parse_manifest(doctored), std::invalid_argument);

  // Indices wider than unsigned must not wrap into range: 2^32 + 1 would
  // narrow to shard 1, and 2^32 + 3 to a 3-shard partition.
  const std::vector<std::pair<std::string, std::string>> widened = {
      {"\"shard\":1,", "\"shard\":4294967297,"},
      {"\"shards\":3,", "\"shards\":4294967299,"}};
  for (const auto& [from, to] : widened) {
    std::string wide = text;
    const auto at = wide.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    wide.replace(at, from.size(), to);
    EXPECT_THROW(engine::parse_manifest(wide), std::invalid_argument) << to;
  }

  // Duplicate *keys* are legal (a multi-grid sweep can repeat a cell
  // under two labels); duplicate *coverage* is the merge's error domain —
  // see ShardMerge.RejectsIncompleteOrForeignManifests ("covered twice").
  ShardManifest dup = good;
  dup.keys = {"0123456789abcdef", "0123456789abcdef"};
  EXPECT_EQ(engine::parse_manifest(engine::render_manifest(dup)).keys,
            dup.keys);
}

TEST(ShardPartition, DegenerateInputsStillCoverExactly) {
  // Empty plan: every shard gets the empty range — a sweep of zero cells
  // merges trivially instead of dividing by zero.
  const GridPlan empty({});
  EXPECT_EQ(empty.total_cells(), 0u);
  for (unsigned shards : {1u, 2u, 7u})
    for (unsigned s = 0; s < shards; ++s) {
      const auto [lo, hi] = empty.shard_cells(s, shards);
      EXPECT_EQ(lo, 0u);
      EXPECT_EQ(hi, 0u);
    }

  // Single cell: exactly one shard owns it; the surplus shards are empty,
  // and the cell is never lost.
  SweepConfig one;
  one.topologies = {"hx2mesh:2x2"};
  one.patterns = {flow::parse_traffic("perm:msg=64KiB")};
  one.seeds = {1};
  const GridPlan single({GridSpec{one, {}}});
  ASSERT_EQ(single.total_cells(), 1u);
  for (unsigned shards : {1u, 2u, 5u}) {
    std::size_t expect_lo = 0, owners = 0;
    for (unsigned s = 0; s < shards; ++s) {
      const auto [lo, hi] = single.shard_cells(s, shards);
      EXPECT_EQ(lo, expect_lo);
      owners += hi - lo;
      expect_lo = hi;
    }
    EXPECT_EQ(expect_lo, 1u) << shards;
    EXPECT_EQ(owners, 1u) << shards;
  }

  // All-equal weights: one engine, one pattern shape, seeds only — the
  // cost-balanced split must reduce to a near-equal count split (±1 cell).
  SweepConfig flat;
  flat.topologies = {"hx2mesh:2x2"};
  flat.patterns = {flow::parse_traffic("shift:1:msg=64KiB")};
  flat.seeds = {1, 2, 3, 4, 5, 6};
  const GridPlan equal({GridSpec{flat, {}}});
  ASSERT_EQ(equal.total_cells(), 6u);
  for (unsigned shards : {2u, 3u, 4u}) {
    std::size_t expect_lo = 0;
    for (unsigned s = 0; s < shards; ++s) {
      const auto [lo, hi] = equal.shard_cells(s, shards);
      EXPECT_EQ(lo, expect_lo);
      const std::size_t size = hi - lo;
      EXPECT_LE(size, 6u / shards + 1) << s << "/" << shards;
      expect_lo = hi;
    }
    EXPECT_EQ(expect_lo, 6u);
  }
}

// The CLI shard subcommand is the worker the orchestrator launches; drive
// it in-process against a shared cache and verify the merged sweep output
// equals an uncached single-process sweep of the same config.
TEST(ShardCli, ShardWorkersPlusSweepReproduceSingleProcessRows) {
  const std::string dir = fresh_dir("shard_cli");
  ensure_dir(dir);
  const std::string config = dir + "/grid.json";
  write_file_atomic(config, R"({
    "grids": [
      {"topologies": ["hx2mesh:2x2", "torus:4x4"],
       "patterns": ["shift:1:msg=64KiB", "perm:msg=64KiB"],
       "seeds": [1, 2]},
      {"topologies": ["hx2mesh:2x2"], "engines": ["flow", "packet"],
       "patterns": ["allreduce:msg=256KiB"]}
    ]
  })");

  auto cli = [&](const std::vector<std::string>& args) {
    std::ostringstream out, err;
    const int code = cli::run_cli(args, out, err);
    EXPECT_EQ(code, 0) << err.str();
    return out.str();
  };

  const std::string single = cli({"sweep", "--config", config, "--no-cache",
                                  "--threads", "2"});

  const std::string cache_dir = dir + "/cache";
  for (unsigned s = 0; s < 4; ++s)
    cli({"shard", "--config", config, "--shards", "4", "--shard",
         std::to_string(s), "--cache-dir", cache_dir, "--threads", "1"});

  std::ostringstream out, err;
  ASSERT_EQ(cli::run_cli({"sweep", "--config", config, "--cache-dir",
                          cache_dir, "--threads", "2"},
                         out, err),
            0)
      << err.str();
  EXPECT_EQ(out.str(), single);
  EXPECT_NE(err.str().find("10 hits, 0 misses (100.0% hit rate)"),
            std::string::npos)
      << err.str();
}

}  // namespace
}  // namespace hxmesh
