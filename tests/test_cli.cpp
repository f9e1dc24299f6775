// hxmesh CLI: exit codes and messages for bad input (the contract CI
// scripts rely on), subcommand output shapes, and the cached sweep path
// end to end — including the 100%-hit-rate report on a re-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "core/counters.hpp"
#include "core/fsio.hpp"
#include "engine/grid_plan.hpp"
#include "engine/result_cache.hpp"
#include "engine/shard.hpp"

namespace hxmesh {
namespace {

struct CliOutcome {
  int code = 0;
  std::string out;
  std::string err;
};

CliOutcome run(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  CliOutcome outcome;
  outcome.code = cli::run_cli(args, out, err);
  outcome.out = out.str();
  outcome.err = err.str();
  return outcome;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

// Value of counter `name` on the `counters:` line of a command's stderr,
// or -1 when the line or the name is missing.
long long counter(const std::string& err, const std::string& name) {
  const std::size_t line = err.find("counters:");
  if (line == std::string::npos) return -1;
  const std::string text = err.substr(line, err.find('\n', line) - line);
  const std::size_t at = text.find(" " + name + "=");
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + name.size() + 2));
}

TEST(Cli, NoArgsPrintsUsageAndFails) {
  auto r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  auto r = run({"--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("subcommands:"), std::string::npos);
}

TEST(Cli, UnknownSubcommandFails) {
  auto r = run({"explode"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown subcommand 'explode'"), std::string::npos);
}

TEST(Cli, BadTopologySpecFailsUsefully) {
  auto r = run({"run", "--topo", "klein-bottle:4x4", "--pattern", "perm",
                "--no-cache"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("klein-bottle"), std::string::npos);
  EXPECT_NE(r.err.find("unknown family"), std::string::npos);
}

TEST(Cli, MalformedPatternFailsUsefully) {
  auto r = run({"run", "--topo", "hx2mesh:2x2", "--pattern",
                "alltoall:msg=1MiBB", "--no-cache"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad size suffix"), std::string::npos);
}

TEST(Cli, UnknownEngineFailsUsefully) {
  auto r = run({"run", "--topo", "hx2mesh:2x2", "--pattern", "perm",
                "--engine", "quantum", "--no-cache"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown engine 'quantum'"), std::string::npos);
  EXPECT_NE(r.err.find("flow"), std::string::npos);  // lists what exists
}

TEST(Cli, MissingFlagValueFails) {
  auto r = run({"run", "--topo"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--topo needs a value"), std::string::npos);
}

TEST(Cli, NegativeSeedFails) {
  auto r = run({"run", "--topo", "hx2mesh:2x2", "--pattern", "perm",
                "--seed", "-1", "--no-cache"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad number '-1'"), std::string::npos);
}

TEST(Cli, LsListsEnginesTopologiesPatterns) {
  auto r = run({"ls"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("engines:"), std::string::npos);
  EXPECT_NE(r.out.find("flow"), std::string::npos);
  EXPECT_NE(r.out.find("packet"), std::string::npos);
  EXPECT_NE(r.out.find("hx2mesh:XxY"), std::string::npos);
  EXPECT_NE(r.out.find("alltoall"), std::string::npos);

  auto engines_only = run({"ls", "engines"});
  EXPECT_EQ(engines_only.code, 0);
  EXPECT_EQ(engines_only.out.find("topologies:"), std::string::npos);

  EXPECT_EQ(run({"ls", "quarks"}).code, 2);
}

TEST(Cli, RunEmitsOneJsonRow) {
  auto r = run({"run", "--topo", "hx2mesh:2x2", "--pattern",
                "shift:1:msg=64KiB", "--threads", "1", "--no-cache"});
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_NE(r.out.find("\"topology\":\"hx2mesh:2x2\""), std::string::npos);
  // The pattern key is the full canonical spec (minus the seed).
  EXPECT_NE(r.out.find("\"pattern\":\"shift:1:msg=64KiB\""), std::string::npos);
  EXPECT_EQ(r.err.find("cache:"), std::string::npos);  // --no-cache is silent
}

TEST(Cli, PatternEmbeddedSeedIsHonored) {
  auto r = run({"run", "--topo", "hx2mesh:2x2", "--pattern",
                "perm:seed=9:msg=64KiB", "--threads", "1", "--no-cache"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"seed\":9"), std::string::npos);
  // An explicit --seed flag still overrides the spec string.
  auto overridden = run({"run", "--topo", "hx2mesh:2x2", "--pattern",
                         "perm:seed=9:msg=64KiB", "--seed", "3", "--threads",
                         "1", "--no-cache"});
  ASSERT_EQ(overridden.code, 0) << overridden.err;
  EXPECT_NE(overridden.out.find("\"seed\":3"), std::string::npos);
}

TEST(Cli, NegativeShiftRunsInRange) {
  // shift:-1 is a legal scenario (the reverse neighbor shift); it must
  // simulate, not index out of bounds.
  auto r = run({"run", "--topo", "hx2mesh:2x2", "--pattern",
                "shift:-1:msg=64KiB", "--threads", "1", "--no-cache"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"numerics_ok\":true"), std::string::npos);
}

TEST(Cli, OutOfRangeRingRanksFail) {
  auto r = run({"run", "--topo", "hx2mesh:2x2", "--pattern",
                "ring:ranks=0,999", "--threads", "1", "--no-cache"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("out of range"), std::string::npos);
}

TEST(Cli, SweepTwiceHitsCacheWithIdenticalRows) {
  const std::string dir = fresh_dir("cli_sweep_cache");
  const std::vector<std::string> sweep = {
      "sweep",       "--topo",    "hx2mesh:2x2", "--topo",   "torus:4x4",
      "--pattern",   "perm:msg=64KiB", "--pattern", "shift:2:msg=64KiB",
      "--seed",      "1",         "--seed",      "2",        "--threads",
      "2",           "--cache-dir", dir};
  auto cold = run(sweep);
  ASSERT_EQ(cold.code, 0) << cold.err;
  EXPECT_NE(cold.err.find("8 misses"), std::string::npos);
  EXPECT_NE(cold.err.find("0.0% hit rate"), std::string::npos);

  auto warm = run(sweep);
  ASSERT_EQ(warm.code, 0) << warm.err;
  EXPECT_NE(warm.err.find("8 hits, 0 misses (100.0% hit rate)"),
            std::string::npos);
  // Byte-identical JSON rows, cold vs warm.
  EXPECT_EQ(warm.out, cold.out);
}

TEST(Cli, SweepConfigFileDrivesTheGrid) {
  const std::string dir = fresh_dir("cli_config");
  ensure_dir(dir);
  const std::string config = dir + "/grid.json";
  write_file_atomic(config, R"({
    "topologies": ["hx2mesh:2x2"],
    "engines": ["flow"],
    "patterns": ["shift:1:msg=64KiB", "perm:msg=64KiB"],
    "seeds": [1, 2],
    "labels": ["tiny"]
  })");
  auto r = run({"sweep", "--config", config, "--no-cache", "--threads", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  // 1 topo x 1 engine x 2 patterns x 2 seeds, labeled.
  EXPECT_EQ(static_cast<int>(std::count(r.out.begin(), r.out.end(), '{')), 4);
  EXPECT_NE(r.out.find("\"label\":\"tiny\""), std::string::npos);

  write_file_atomic(config, "{\"patterns\": [\"warp:1\"]}");
  EXPECT_EQ(run({"sweep", "--config", config}).code, 2);
  EXPECT_EQ(run({"sweep", "--config", dir + "/nope.json"}).code, 1);
}

TEST(Cli, SweepWithoutAxesFails) {
  auto r = run({"sweep", "--pattern", "perm"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--topo"), std::string::npos);
}

TEST(Cli, SweepShardsRequireTheCache) {
  auto r = run({"sweep", "--topo", "hx2mesh:2x2", "--pattern",
                "perm:msg=64KiB", "--shards", "2", "--no-cache"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--shards needs the result cache"), std::string::npos);

  EXPECT_EQ(run({"shard", "--topo", "hx2mesh:2x2", "--pattern", "perm",
                 "--shards", "2", "--shard", "2"})
                .code,
            2);  // --shard out of range
  EXPECT_EQ(run({"shard", "--topo", "hx2mesh:2x2", "--pattern", "perm",
                 "--shard", "0"})
                .code,
            2);  // missing --shards
  EXPECT_EQ(run({"run", "--topo", "hx2mesh:2x2", "--pattern", "perm",
                 "--shards", "2", "--no-cache"})
                .code,
            2);  // run does not shard

  // A value that would wrap the narrowing cast must error, not become 0
  // shards (which would silently fall back to a single-process sweep).
  auto wrapped = run({"sweep", "--topo", "hx2mesh:2x2", "--pattern", "perm",
                      "--shards", "4294967296", "--no-cache"});
  EXPECT_EQ(wrapped.code, 2);
  EXPECT_NE(wrapped.err.find("out of range"), std::string::npos);
}

TEST(Cli, GridsConfigRejectsAxisFlags) {
  const std::string dir = fresh_dir("cli_grids_conflict");
  ensure_dir(dir);
  const std::string config = dir + "/grids.json";
  write_file_atomic(config,
                    R"({"grids": [{"topologies": ["hx2mesh:2x2"],
                                   "patterns": ["perm:msg=64KiB"]}]})");
  auto r = run({"sweep", "--config", config, "--topo", "torus:4x4",
                "--no-cache"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("cannot be combined with axis flags"),
            std::string::npos);
  // And run never accepts a grids config.
  EXPECT_EQ(run({"run", "--config", config, "--no-cache"}).code, 2);
}

// End-to-end orchestration: fork/exec real `hxmesh shard` workers. Needs
// the installed binary's path, which ctest provides via HXMESH_EXE.
TEST(Cli, SweepShardedViaSubprocessesMatchesSingleProcess) {
  const char* exe = std::getenv("HXMESH_EXE");
  if (!exe || !*exe || !std::filesystem::exists(exe))
    GTEST_SKIP() << "HXMESH_EXE not set (ctest sets it to the hxmesh binary)";

  const std::string dir = fresh_dir("cli_sharded_sweep");
  ensure_dir(dir);
  const std::vector<std::string> grid = {
      "--topo",    "hx2mesh:2x2",      "--topo",    "torus:4x4",
      "--pattern", "perm:msg=64KiB",   "--pattern", "shift:2:msg=64KiB",
      "--seed",    "1",                "--seed",    "2",
      "--threads", "2"};

  auto with = [&](std::vector<std::string> args,
                  const std::vector<std::string>& extra) {
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  };
  auto single = run(with({"sweep"}, with(grid, {"--no-cache"})));
  ASSERT_EQ(single.code, 0) << single.err;

  const std::vector<std::string> sharded_args = with(
      {"sweep"}, with(grid, {"--shards", "3", "--workers", "2", "--cache-dir",
                             dir + "/cache"}));
  auto sharded = run(sharded_args);
  ASSERT_EQ(sharded.code, 0) << sharded.err;
  EXPECT_EQ(sharded.out, single.out);
  EXPECT_NE(sharded.err.find("shards: 3 ok"), std::string::npos)
      << sharded.err;
  EXPECT_NE(sharded.err.find("0 hits, 8 computed"), std::string::npos)
      << sharded.err;

  // Re-running the sharded sweep is a pure cache replay.
  auto warm = run(sharded_args);
  ASSERT_EQ(warm.code, 0) << warm.err;
  EXPECT_EQ(warm.out, single.out);
  EXPECT_NE(warm.err.find("8 hits, 0 computed"), std::string::npos)
      << warm.err;
}

TEST(Cli, CacheStatsAndClear) {
  const std::string dir = fresh_dir("cli_cache_cmd");
  auto empty = run({"cache", "stats", "--cache-dir", dir});
  EXPECT_EQ(empty.code, 0);
  EXPECT_NE(empty.out.find("entries: 0"), std::string::npos);

  ASSERT_EQ(run({"run", "--topo", "hx2mesh:2x2", "--pattern",
                 "shift:1:msg=64KiB", "--threads", "1", "--cache-dir", dir})
                .code,
            0);
  auto one = run({"cache", "stats", "--cache-dir", dir});
  EXPECT_NE(one.out.find("entries: 1"), std::string::npos);

  auto cleared = run({"cache", "clear", "--cache-dir", dir});
  EXPECT_EQ(cleared.code, 0);
  EXPECT_NE(cleared.out.find("removed 1"), std::string::npos);
  EXPECT_NE(run({"cache", "stats", "--cache-dir", dir}).out.find("entries: 0"),
            std::string::npos);

  EXPECT_EQ(run({"cache"}).code, 2);
  EXPECT_EQ(run({"cache", "defrag"}).code, 2);
  // Nothing evicts entries: the prune action and its bounds are gone.
  EXPECT_EQ(run({"cache", "prune", "--cache-dir", dir}).code, 2);
  EXPECT_EQ(run({"cache", "stats", "--max-age", "7d", "--cache-dir", dir})
                .code,
            2);
  EXPECT_EQ(run({"cache", "stats", "--max-entries", "3", "--cache-dir", dir})
                .code,
            2);
}

TEST(Cli, RunsAndSweepsReportRoutingOracleCounters) {
  const std::string dir = fresh_dir("cli_routing_report");
  // A packet run builds route tables — distance fields must come from the
  // closed-form oracle, never BFS, on a structured topology.
  const counters::Map before = counters::snapshot();
  auto packet = run({"run", "--topo", "hx2mesh:2x2", "--engine", "packet",
                     "--pattern", "shift:1:msg=64KiB", "--threads", "1",
                     "--cache-dir", dir});
  ASSERT_EQ(packet.code, 0) << packet.err;
  const counters::Map after = counters::snapshot();
  EXPECT_GT(after.at("routing.oracle_fills"),
            before.at("routing.oracle_fills"));
  EXPECT_EQ(after.at("routing.bfs_fills"), before.at("routing.bfs_fills"))
      << "a structured topology fell back to BFS on the hot path";

  // The run's counters line says the same, and names the batch counters.
  EXPECT_GT(counter(packet.err, "routing.oracle_fills"), 0) << packet.err;
  EXPECT_EQ(counter(packet.err, "routing.bfs_fills"), 0) << packet.err;
  EXPECT_EQ(counter(packet.err, "batch.topo_groups"), 1) << packet.err;

  // Sweeps report the same counters next to the cache summary.
  auto sweep = run({"sweep", "--topo", "hx2mesh:2x2", "--pattern",
                    "shift:1:msg=64KiB", "--threads", "1", "--cache-dir",
                    dir});
  EXPECT_EQ(sweep.code, 0);
  EXPECT_GE(counter(sweep.err, "routing.oracle_fills"), 0) << sweep.err;
  EXPECT_EQ(counter(sweep.err, "batch.topo_groups"), 1) << sweep.err;

  // cache stats reports the store, not a fresh process's zero counters.
  auto stats = run({"cache", "stats", "--cache-dir", dir});
  EXPECT_EQ(stats.code, 0);
  EXPECT_NE(stats.out.find("entries: 2"), std::string::npos) << stats.out;
  EXPECT_EQ(stats.out.find("oracle"), std::string::npos) << stats.out;
}

// A ring between neighbouring accelerators mostly has one minimal path, so
// the solver stores far fewer subflow runs than it samples strata, and
// the counters line shows it.
TEST(Cli, RunReportsFlowSolverCounters) {
  auto r = run({"run", "--topo", "hx2mesh:4x4", "--pattern", "allreduce",
                "--threads", "1", "--no-cache"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(counter(r.err, "flow.solves"), 1) << r.err;
  EXPECT_GT(counter(r.err, "flow.subflows"), 0) << r.err;
  EXPECT_LT(counter(r.err, "flow.subflows"), counter(r.err, "flow.strata"))
      << r.err;
  // A ring pair with one minimal path is drawn once, not per stratum.
  EXPECT_LE(counter(r.err, "flow.subflows"), counter(r.err, "flow.draws"))
      << r.err;
  EXPECT_LT(counter(r.err, "flow.draws"), counter(r.err, "flow.strata"))
      << r.err;
  EXPECT_EQ(counter(r.err, "flow.unconverged"), 0) << r.err;
}

// Bundle rows are built on a graph's first bundle lookup. HammingMesh
// routes by arithmetic and never looks one up; the fat tree does on its
// first route, once.
TEST(Cli, OnlyFamiliesThatLookUpBundlesBuildBundleRows) {
  auto hx = run({"run", "--topo", "hx2mesh:16x16", "--pattern",
                 "perm:msg=1MiB", "--threads", "1", "--no-cache"});
  ASSERT_EQ(hx.code, 0) << hx.err;
  EXPECT_EQ(counter(hx.err, "routing.bundle_indexes"), 0) << hx.err;
  auto ft = run({"run", "--topo", "fattree:256", "--pattern",
                 "perm:msg=1MiB", "--threads", "1", "--no-cache"});
  ASSERT_EQ(ft.code, 0) << ft.err;
  EXPECT_EQ(counter(ft.err, "routing.bundle_indexes"), 1) << ft.err;
}

// UGAL-L decides at the injecting accelerator. HammingMesh accelerators
// have four ports, so under a shift some packets see their detour port
// emptier than the minimal one and take it; minimal routing takes none.
TEST(Cli, PacketUgalShiftDetoursOnHammingMesh) {
  auto ugal = run({"run", "--engine", "packet", "--topo", "hx2mesh:4x4",
                   "--pattern", "shift:1:msg=256KiB:route=ugal", "--threads",
                   "1", "--no-cache"});
  ASSERT_EQ(ugal.code, 0) << ugal.err;
  EXPECT_GT(counter(ugal.err, "sim.ugal_detours"), 0) << ugal.err;
  EXPECT_GT(counter(ugal.err, "sim.head_checks"), 0) << ugal.err;
  auto minimal = run({"run", "--engine", "packet", "--topo", "hx2mesh:4x4",
                      "--pattern", "shift:1:msg=256KiB", "--threads", "1",
                      "--no-cache"});
  ASSERT_EQ(minimal.code, 0) << minimal.err;
  EXPECT_EQ(counter(minimal.err, "sim.ugal_detours"), 0) << minimal.err;
}

TEST(Cli, RobustnessFlagsAreValidated) {
  const std::vector<std::string> cell = {"--topo", "hx2mesh:2x2", "--pattern",
                                         "perm:msg=64KiB"};
  auto with = [&](std::vector<std::string> args,
                  const std::vector<std::string>& extra) {
    args.insert(args.end(), cell.begin(), cell.end());
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  };
  // run is a single cell: none of the orchestration flags apply.
  EXPECT_EQ(run(with({"run"}, {"--shard-timeout", "5", "--no-cache"})).code, 2);
  // There is one partition, so the flags that picked one are gone.
  for (const char* sub : {"run", "sweep", "shard"})
    for (const std::vector<std::string>& gone :
         {std::vector<std::string>{"--weighted"},
          std::vector<std::string>{"--micro-shards", "4"}}) {
      auto r = run(with({sub}, gone));
      EXPECT_EQ(r.code, 2) << sub << " " << gone[0];
      EXPECT_NE(r.err.find("unknown flag '" + gone[0] + "'"),
                std::string::npos)
          << r.err;
    }
  // sweep: the watchdog needs a sharded run to watch.
  auto orphan_timeout = run(with({"sweep"}, {"--shard-timeout", "5"}));
  EXPECT_EQ(orphan_timeout.code, 2);
  EXPECT_NE(orphan_timeout.err.find("--shard-timeout needs"),
            std::string::npos)
      << orphan_timeout.err;
  // shard: the sweep-side flags are rejected, and bad durations fail.
  EXPECT_EQ(run(with({"shard"}, {"--shards", "2", "--shard", "0",
                                 "--shard-timeout", "1"}))
                .code,
            2);
  EXPECT_EQ(run(with({"sweep"}, {"--shards", "2", "--shard-timeout", "abc"}))
                .code,
            2);
}

TEST(Cli, ShardedSweepSplitsByCostAndMatchesSingleProcess) {
  const char* exe = std::getenv("HXMESH_EXE");
  if (!exe || !*exe || !std::filesystem::exists(exe))
    GTEST_SKIP() << "HXMESH_EXE not set (ctest sets it to the hxmesh binary)";

  const std::string dir = fresh_dir("cli_cost_shards");
  ensure_dir(dir);
  const std::string config = dir + "/grid.json";
  // Mixed flow+packet so the cost-balanced boundaries differ from an
  // equal-count split: the packet cells dwarf every flow cell.
  write_file_atomic(config, R"({
    "topologies": ["hx2mesh:2x2"],
    "engines": ["flow", "packet"],
    "patterns": ["shift:1:msg=64KiB", "perm:msg=64KiB"],
    "seeds": [1]
  })");

  auto single =
      run({"sweep", "--config", config, "--no-cache", "--threads", "2"});
  ASSERT_EQ(single.code, 0) << single.err;

  const std::string cache_dir = dir + "/cache";
  auto sharded = run({"sweep", "--config", config, "--shards", "4",
                      "--workers", "2", "--threads", "1", "--cache-dir",
                      cache_dir});
  ASSERT_EQ(sharded.code, 0) << sharded.err;
  EXPECT_EQ(sharded.out, single.out);  // byte-identical rows
  EXPECT_NE(sharded.err.find("shards: 4 ok"), std::string::npos)
      << sharded.err;

  // Each child covered exactly its block of plan.shard_cells.
  engine::SweepConfig axes;
  axes.topologies = {"hx2mesh:2x2"};
  axes.engines = {"flow", "packet"};
  axes.patterns = {flow::parse_traffic("shift:1:msg=64KiB"),
                   flow::parse_traffic("perm:msg=64KiB")};
  axes.seeds = {1};
  const engine::GridPlan plan({engine::GridSpec{axes, {}}});
  const engine::ResultCache cache(cache_dir);
  bool uneven = false;
  for (unsigned i = 0; i < 4; ++i) {
    const auto text =
        read_file(cache.shard_manifest_path(plan.fingerprint(), i, 4));
    ASSERT_TRUE(text.has_value()) << "no manifest for shard " << i;
    const engine::ShardManifest manifest = engine::parse_manifest(*text);
    const auto [lo, hi] = plan.shard_cells(i, 4);
    EXPECT_EQ(manifest.cell_lo, lo) << i;
    EXPECT_EQ(manifest.cell_hi, hi) << i;
    uneven = uneven || hi - lo != 1;
  }
  EXPECT_TRUE(uneven) << "4 cells in 4 shards of one cell each: split by "
                         "count, not by cost";
}

TEST(Cli, ShardedSweepReportsFleetCounters) {
  const char* exe = std::getenv("HXMESH_EXE");
  if (!exe || !*exe || !std::filesystem::exists(exe))
    GTEST_SKIP() << "HXMESH_EXE not set (ctest sets it to the hxmesh binary)";

  // The work of a sharded sweep runs in its children; their manifests
  // carry their counters home, so the orchestrator's line shows the same
  // totals a single process would.
  const std::string config =
      std::string(HXMESH_SOURCE_DIR) + "/bench/baselines/chaos_grid.json";
  const std::string dir = fresh_dir("cli_fleet_counters");
  auto single = run({"sweep", "--config", config, "--threads", "1",
                     "--cache-dir", dir + "/single"});
  ASSERT_EQ(single.code, 0) << single.err;
  auto sharded = run({"sweep", "--config", config, "--shards", "4",
                      "--workers", "2", "--threads", "1", "--cache-dir",
                      dir + "/sharded"});
  ASSERT_EQ(sharded.code, 0) << sharded.err;
  EXPECT_EQ(sharded.out, single.out);
  EXPECT_EQ(counter(single.err, "batch.cells_executed"), 13) << single.err;
  EXPECT_EQ(counter(sharded.err, "batch.cells_executed"), 13) << sharded.err;
  EXPECT_GT(counter(sharded.err, "routing.oracle_fills"), 0) << sharded.err;
  EXPECT_EQ(counter(sharded.err, "routing.bfs_fills"), 0) << sharded.err;
  // The grid's packet cell runs in one child; its packet work comes home.
  EXPECT_GT(counter(single.err, "sim.packet_hops"), 0) << single.err;
  for (const char* name : {"sim.events", "sim.packet_hops"})
    EXPECT_EQ(counter(sharded.err, name), counter(single.err, name)) << name;

  // Over-decomposed: six of the eight blocks are empty and get their
  // manifests in process. Those manifests must add nothing to the totals.
  auto wide = run({"sweep", "--config", config, "--shards", "8",
                   "--workers", "2", "--threads", "1", "--cache-dir",
                   dir + "/wide"});
  ASSERT_EQ(wide.code, 0) << wide.err;
  EXPECT_EQ(wide.out, single.out);
  for (const char* name :
       {"batch.cells_executed", "routing.oracle_fills", "routing.bfs_fills",
        "sim.events", "sim.packet_hops"})
    EXPECT_EQ(counter(wide.err, name), counter(single.err, name)) << name;
}

TEST(Cli, ShardedSweepReportsChildQuarantine) {
  const char* exe = std::getenv("HXMESH_EXE");
  if (!exe || !*exe || !std::filesystem::exists(exe))
    GTEST_SKIP() << "HXMESH_EXE not set (ctest sets it to the hxmesh binary)";

  const std::string config =
      std::string(HXMESH_SOURCE_DIR) + "/bench/baselines/chaos_grid.json";
  const std::string cache_dir = fresh_dir("cli_child_quarantine") + "/cache";
  const std::vector<std::string> args = {
      "sweep",     "--config", config,      "--shards", "4",
      "--threads", "1",        "--workers", "2",        "--cache-dir",
      cache_dir};
  auto cold = run(args);
  ASSERT_EQ(cold.code, 0) << cold.err;

  // Truncate one entry: the child whose block holds it quarantines it and
  // recomputes, and the orchestrator must say so.
  std::vector<std::string> entries;
  for (const std::string& path : list_files(cache_dir))
    if (path.size() > 5 && path.compare(path.size() - 5, 5, ".json") == 0)
      entries.push_back(path);
  ASSERT_FALSE(entries.empty());
  const auto text = read_file(entries.front());
  ASSERT_TRUE(text.has_value());
  write_file_atomic(entries.front(), text->substr(0, text->size() / 2));

  auto healed = run(args);
  ASSERT_EQ(healed.code, 0) << healed.err;
  EXPECT_EQ(healed.out, cold.out);
  EXPECT_EQ(counter(healed.err, "cache.quarantined"), 1) << healed.err;
  EXPECT_EQ(counter(healed.err, "batch.cells_executed"), 1) << healed.err;
}

// Points HXMESH_EXE, the binary a sharded sweep launches per shard, at a
// shell wrapper for one scope: `body` runs with the shard's argv in "$@",
// then the wrapper execs the real binary.
class ExeWrapper {
 public:
  ExeWrapper(const std::string& dir, const std::string& body)
      : real_(std::getenv("HXMESH_EXE")) {
    const std::string path = dir + "/hxmesh-wrapper.sh";
    write_file_atomic(path, "#!/bin/sh\n" + body + "\nexec '" + real_ +
                                "' \"$@\"\n");
    std::filesystem::permissions(path, std::filesystem::perms::owner_all);
    ::setenv("HXMESH_EXE", path.c_str(), 1);
  }
  ~ExeWrapper() { ::setenv("HXMESH_EXE", real_.c_str(), 1); }

 private:
  std::string real_;
};

TEST(Cli, EmptyBlocksSpawnNoChild) {
  const char* exe = std::getenv("HXMESH_EXE");
  if (!exe || !*exe || !std::filesystem::exists(exe))
    GTEST_SKIP() << "HXMESH_EXE not set (ctest sets it to the hxmesh binary)";

  // Of the eight blocks only shard 0 (the twelve flow cells) and shard 4
  // (the packet cell) hold cells; with one slot the heavier one goes first.
  const std::string config =
      std::string(HXMESH_SOURCE_DIR) + "/bench/baselines/chaos_grid.json";
  const std::string dir = fresh_dir("cli_empty_blocks");
  ensure_dir(dir);
  auto single = run({"sweep", "--config", config, "--no-cache", "--threads",
                     "1"});
  ASSERT_EQ(single.code, 0) << single.err;
  CliOutcome sharded;
  {
    const ExeWrapper wrapper(dir, "echo \"$*\" >> '" + dir + "/launches'");
    sharded = run({"sweep", "--config", config, "--shards", "8", "--workers",
                   "1", "--threads", "1", "--cache-dir", dir + "/cache"});
  }
  ASSERT_EQ(sharded.code, 0) << sharded.err;
  EXPECT_EQ(sharded.out, single.out);
  EXPECT_NE(sharded.err.find("shards: 8 ok"), std::string::npos)
      << sharded.err;

  std::vector<std::string> launched;
  std::istringstream log(read_file(dir + "/launches").value_or(""));
  for (std::string line; std::getline(log, line);) {
    const std::size_t at = line.find("--shard ");
    ASSERT_NE(at, std::string::npos) << line;
    std::istringstream rest(line.substr(at + 8));
    std::string index;
    rest >> index;
    launched.push_back(index);
  }
  EXPECT_EQ(launched, (std::vector<std::string>{"4", "0"}));
}

TEST(Cli, KilledShardFailsTheSweepAndReRunResumesFromTheCache) {
  const char* exe = std::getenv("HXMESH_EXE");
  if (!exe || !*exe || !std::filesystem::exists(exe))
    GTEST_SKIP() << "HXMESH_EXE not set (ctest sets it to the hxmesh binary)";

  const std::string config =
      std::string(HXMESH_SOURCE_DIR) + "/bench/baselines/chaos_grid.json";
  const std::string dir = fresh_dir("cli_killed_shard");
  ensure_dir(dir);
  auto clean = run({"sweep", "--config", config, "--no-cache", "--threads",
                    "1"});
  ASSERT_EQ(clean.code, 0) << clean.err;

  const std::vector<std::string> args = {
      "sweep",     "--config", config,      "--shards", "4",
      "--threads", "1",        "--workers", "2",        "--cache-dir",
      dir + "/cache"};
  {
    // Shard 0 holds the twelve flow cells; it dies before computing any.
    const ExeWrapper wrapper(
        dir, "case \" $* \" in *\" --shard 0 \"*) kill -9 $$ ;; esac");
    auto killed = run(args);
    EXPECT_EQ(killed.code, 1) << killed.err;
    EXPECT_NE(killed.err.find("shard 0: signaled"), std::string::npos)
        << killed.err;
    EXPECT_NE(killed.err.find("1 of 4 shards failed"), std::string::npos)
        << killed.err;
  }

  // The packet cell's shard finished and stored it, so the re-run
  // computes only the twelve cells the killed shard owed.
  auto resumed = run(args);
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_EQ(resumed.out, clean.out);
  EXPECT_NE(resumed.err.find("cells: 1 hits, 12 computed"), std::string::npos)
      << resumed.err;
  EXPECT_EQ(counter(resumed.err, "batch.cells_executed"), 12) << resumed.err;

  // A shard binary that cannot be started fails every launched shard.
  {
    const std::string real = exe;
    ::setenv("HXMESH_EXE", (dir + "/missing-hxmesh").c_str(), 1);
    auto unspawnable = run({"sweep", "--config", config, "--shards", "4",
                            "--threads", "1", "--cache-dir",
                            dir + "/unspawnable"});
    ::setenv("HXMESH_EXE", real.c_str(), 1);
    EXPECT_EQ(unspawnable.code, 1) << unspawnable.err;
    for (const char* line : {"shard 0: spawn-failed", "shard 2: spawn-failed",
                             "2 of 4 shards failed"})
      EXPECT_NE(unspawnable.err.find(line), std::string::npos)
          << unspawnable.err;
    EXPECT_EQ(unspawnable.err.find(": ok"), std::string::npos)
        << unspawnable.err;
  }
}

TEST(Cli, HungShardIsReapedByTheWatchdog) {
  const char* exe = std::getenv("HXMESH_EXE");
  if (!exe || !*exe || !std::filesystem::exists(exe))
    GTEST_SKIP() << "HXMESH_EXE not set (ctest sets it to the hxmesh binary)";

  const std::string config =
      std::string(HXMESH_SOURCE_DIR) + "/bench/baselines/chaos_grid.json";
  const std::string dir = fresh_dir("cli_hung_shard");
  ensure_dir(dir);
  const ExeWrapper wrapper(
      dir, "case \" $* \" in *\" --shard 0 \"*) exec sleep 30 ;; esac");
  const auto start = std::chrono::steady_clock::now();
  auto hung = run({"sweep", "--config", config, "--shards", "4", "--threads",
                   "1", "--shard-timeout", "1", "--cache-dir",
                   dir + "/cache"});
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_EQ(hung.code, 1) << hung.err;
  EXPECT_NE(hung.err.find("shard 0: timed-out"), std::string::npos)
      << hung.err;
  EXPECT_NE(hung.err.find("1 of 4 shards failed"), std::string::npos)
      << hung.err;
  EXPECT_LT(elapsed_s, 5.0) << hung.err;
}

TEST(Cli, CacheStatsReportQuarantineAndSweepsReportIntegrity) {
  const std::string dir = fresh_dir("cli_quarantine");
  ASSERT_EQ(run({"run", "--topo", "hx2mesh:2x2", "--pattern",
                 "shift:1:msg=64KiB", "--threads", "1", "--cache-dir", dir})
                .code,
            0);

  // Tear the entry on disk: the next cached run must quarantine it,
  // recompute, and say so.
  auto entries = list_files(dir);
  ASSERT_FALSE(entries.empty());
  auto text = read_file(entries.front());
  ASSERT_TRUE(text.has_value());
  write_file_atomic(entries.front(), text->substr(0, text->size() / 2));

  auto healed = run({"run", "--topo", "hx2mesh:2x2", "--pattern",
                     "shift:1:msg=64KiB", "--threads", "1", "--cache-dir",
                     dir});
  ASSERT_EQ(healed.code, 0) << healed.err;
  EXPECT_EQ(counter(healed.err, "cache.quarantined"), 1) << healed.err;

  auto stats = run({"cache", "stats", "--cache-dir", dir});
  EXPECT_EQ(stats.code, 0);
  EXPECT_NE(stats.out.find("quarantined: 1"), std::string::npos) << stats.out;

  // A clean hit verifies the checksum (every hit does) and reports it.
  auto warm = run({"run", "--topo", "hx2mesh:2x2", "--pattern",
                   "shift:1:msg=64KiB", "--threads", "1", "--cache-dir",
                   dir});
  EXPECT_NE(warm.err.find("cache: 1 hits, 0 misses"), std::string::npos)
      << warm.err;
  EXPECT_EQ(counter(warm.err, "cache.quarantined"), 0) << warm.err;

  // clear() reclaims the quarantined evidence too.
  ASSERT_EQ(run({"cache", "clear", "--cache-dir", dir}).code, 0);
  EXPECT_NE(run({"cache", "stats", "--cache-dir", dir})
                .out.find("quarantined: 0"),
            std::string::npos);
}

TEST(Cli, RemovedFabricFlagsAreUsageErrors) {
  // Sweeps run on one machine and a failed shard fails the sweep: the
  // remote-host, retry, progress and attempt flags and the serve daemon
  // are gone, and naming them is a usage error rather than a silent no-op.
  const std::vector<std::vector<std::string>> removed = {
      {"--hosts", "a:1"},        {"--lease-timeout", "5"},
      {"--blacklist-after", "1"}, {"--retries", "1"},
      {"--retry-backoff", "0.1"}, {"--progress"},
      {"--attempt", "2"},         {"--manifest", "m.json"}};
  for (const auto& flag : removed) {
    std::vector<std::string> args = {"sweep",     "--topo",  "hx2mesh:2x2",
                                     "--pattern", "shift:1", "--shards", "2"};
    args.insert(args.end(), flag.begin(), flag.end());
    const auto r = run(args);
    EXPECT_EQ(r.code, 2) << flag[0];
    EXPECT_NE(r.err.find("unknown flag '" + flag[0] + "'"), std::string::npos)
        << r.err;
  }
  const auto serve = run({"serve", "--port", "0"});
  EXPECT_EQ(serve.code, 2);
  EXPECT_NE(serve.err.find("unknown subcommand 'serve'"), std::string::npos)
      << serve.err;
}

}  // namespace
}  // namespace hxmesh
