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
#include "core/chaos.hpp"
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

TEST(Cli, CachePruneEvictsByCountAndRejectsBadFlags) {
  const std::string dir = fresh_dir("cli_cache_prune");
  for (const char* pattern : {"shift:1:msg=64KiB", "shift:2:msg=64KiB",
                              "shift:3:msg=64KiB"})
    ASSERT_EQ(run({"run", "--topo", "hx2mesh:2x2", "--pattern", pattern,
                   "--threads", "1", "--cache-dir", dir})
                  .code,
              0);

  auto pruned = run({"cache", "prune", "--max-entries", "1", "--cache-dir",
                     dir});
  EXPECT_EQ(pruned.code, 0);
  EXPECT_NE(pruned.out.find("pruned 2 entries (1 kept)"), std::string::npos)
      << pruned.out;

  // A generous age bound keeps the survivor.
  auto aged = run({"cache", "prune", "--max-age", "7d", "--cache-dir", dir});
  EXPECT_NE(aged.out.find("pruned 0 entries (1 kept)"), std::string::npos)
      << aged.out;

  EXPECT_EQ(run({"cache", "prune", "--cache-dir", dir}).code, 2);
  EXPECT_EQ(run({"cache", "prune", "--max-age", "7w", "--cache-dir", dir})
                .code,
            2);
}

TEST(Cli, CachePruneAgesOutQuarantinedBlobs) {
  namespace fs = std::filesystem;
  const std::string dir = fresh_dir("cli_prune_quarantine");
  ASSERT_EQ(run({"run", "--topo", "hx2mesh:2x2", "--pattern",
                 "shift:1:msg=64KiB", "--threads", "1", "--cache-dir", dir})
                .code,
            0);

  // Corrupt the entry and re-run: the blob lands in quarantine and the
  // recompute heals the live entry.
  auto entries = list_files(dir);
  ASSERT_FALSE(entries.empty());
  auto text = read_file(entries.front());
  ASSERT_TRUE(text.has_value());
  write_file_atomic(entries.front(), text->substr(0, text->size() / 2));
  ASSERT_EQ(run({"run", "--topo", "hx2mesh:2x2", "--pattern",
                 "shift:1:msg=64KiB", "--threads", "1", "--cache-dir", dir})
                .code,
            0);
  const std::string blob = dir + "/quarantine/" +
                           fs::path(entries.front()).filename().string();
  ASSERT_TRUE(fs::exists(blob));

  // Fresh evidence survives an age-bounded prune...
  auto young = run({"cache", "prune", "--max-age", "7d", "--cache-dir", dir});
  EXPECT_EQ(young.code, 0);
  EXPECT_NE(young.out.find("quarantine: 0 blob(s) aged out"),
            std::string::npos)
      << young.out;
  EXPECT_TRUE(fs::exists(blob));

  // ...stale evidence is aged out, with its own count in the report.
  fs::last_write_time(blob, fs::file_time_type::clock::now() -
                                std::chrono::hours(10 * 24));
  auto stale = run({"cache", "prune", "--max-age", "7d", "--cache-dir", dir});
  EXPECT_EQ(stale.code, 0);
  EXPECT_NE(stale.out.find("pruned 0 entries (1 kept)"), std::string::npos)
      << stale.out;
  EXPECT_NE(stale.out.find("quarantine: 1 blob(s) aged out"),
            std::string::npos)
      << stale.out;
  EXPECT_FALSE(fs::exists(blob));
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
  EXPECT_EQ(run(with({"run"}, {"--attempt", "2", "--no-cache"})).code, 2);
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
  // sweep: the watchdog needs a sharded run to watch, and the shard-only
  // flags are rejected.
  auto orphan_timeout = run(with({"sweep"}, {"--shard-timeout", "5"}));
  EXPECT_EQ(orphan_timeout.code, 2);
  EXPECT_NE(orphan_timeout.err.find("--shard-timeout needs"),
            std::string::npos)
      << orphan_timeout.err;
  EXPECT_EQ(run(with({"sweep"}, {"--attempt", "2"})).code, 2);
  // shard: the sweep-side flags are rejected, and bad durations fail.
  EXPECT_EQ(run(with({"shard"}, {"--shards", "2", "--shard", "0",
                                 "--shard-timeout", "1"}))
                .code,
            2);
  EXPECT_EQ(run(with({"sweep"}, {"--shards", "2", "--shard-timeout", "abc"}))
                .code,
            2);
  EXPECT_EQ(run(with({"sweep"}, {"--shards", "2", "--retry-backoff", "-1"}))
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

// Sets HXMESH_CHAOS for one test; shard children inherit it through the
// orchestrator's environment.
struct ChaosEnv {
  explicit ChaosEnv(const std::string& spec) {
    ::setenv("HXMESH_CHAOS", spec.c_str(), 1);
  }
  ~ChaosEnv() { ::unsetenv("HXMESH_CHAOS"); }
};

TEST(Cli, ChaosSoakSurvivesKillsAndHangsByteIdentically) {
  const char* exe = std::getenv("HXMESH_EXE");
  if (!exe || !*exe || !std::filesystem::exists(exe))
    GTEST_SKIP() << "HXMESH_EXE not set (ctest sets it to the hxmesh binary)";

  // chaos_action is a pure function of (spec, shard, attempt), so the test
  // can pick a seed whose fault schedule is interesting but survivable:
  // every shard succeeds within the retry budget, at least one attempt is
  // killed, at least one hangs (exercising the watchdog), and hangs are
  // few enough to keep the wall clock short.
  const unsigned shards = 8;
  const int max_attempts = 7;  // 1 + --retries 6
  std::uint64_t seed = 0;
  int kills = 0, hangs = 0;
  bool found = false;
  for (std::uint64_t s = 0; s < 10000 && !found; ++s) {
    ChaosSpec spec;
    spec.kill_p = 0.25;
    spec.hang_p = 0.2;
    spec.seed = s;
    kills = hangs = 0;
    bool survivable = true;
    for (unsigned shard = 0; shard < shards && survivable; ++shard) {
      int attempt = 1;
      for (; attempt <= max_attempts; ++attempt) {
        const ChaosAction action = chaos_action(spec, shard, attempt);
        if (action == ChaosAction::kNone) break;
        ++(action == ChaosAction::kKill ? kills : hangs);
      }
      survivable = attempt <= max_attempts;
    }
    if (survivable && kills >= 1 && hangs >= 1 && hangs <= 2) {
      seed = s;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no survivable fault schedule in 10000 seeds";

  const std::string dir = fresh_dir("cli_chaos_soak");
  ensure_dir(dir);
  const std::string config = dir + "/grid.json";
  write_file_atomic(config, R"({
    "topologies": ["hx2mesh:2x2", "torus:4x4"],
    "patterns": ["shift:1:msg=64KiB", "perm:msg=64KiB"],
    "seeds": [1, 2]
  })");

  auto single =
      run({"sweep", "--config", config, "--no-cache", "--threads", "2"});
  ASSERT_EQ(single.code, 0) << single.err;

  const ChaosEnv chaos("kill:0.25:seed=" + std::to_string(seed) + ",hang:0.2");
  auto soaked = run({"sweep", "--config", config, "--shards",
                     std::to_string(shards), "--workers", "3", "--retries",
                     "6", "--shard-timeout", "1", "--retry-backoff", "0.01",
                     "--progress", "--threads", "1", "--cache-dir",
                     dir + "/cache"});
  ASSERT_EQ(soaked.code, 0) << soaked.err;
  // The deliverable: real SIGKILLed children and real hung children, and
  // the merged rows are still byte-identical to the clean run.
  EXPECT_EQ(soaked.out, single.out);
  EXPECT_NE(soaked.err.find("signaled"), std::string::npos) << soaked.err;
  EXPECT_NE(soaked.err.find("timed-out"), std::string::npos) << soaked.err;
  EXPECT_NE(soaked.err.find("succeeded on attempt"), std::string::npos)
      << soaked.err;
  EXPECT_NE(soaked.err.find("shards: 8 ok"), std::string::npos) << soaked.err;
}

TEST(Cli, ChaosNegativeControlFailsWithoutRetries) {
  const char* exe = std::getenv("HXMESH_EXE");
  if (!exe || !*exe || !std::filesystem::exists(exe))
    GTEST_SKIP() << "HXMESH_EXE not set (ctest sets it to the hxmesh binary)";

  // kill:1 murders every attempt; with --retries 0 the sweep must fail.
  // This is the control that proves the soak test cannot silently pass
  // with chaos disabled.
  const std::string dir = fresh_dir("cli_chaos_control");
  ensure_dir(dir);
  const ChaosEnv chaos("kill:1");
  auto r = run({"sweep", "--topo", "hx2mesh:2x2", "--pattern",
                "perm:msg=64KiB", "--shards", "2", "--retries", "0",
                "--threads", "1", "--cache-dir", dir + "/cache"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("signaled"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("shards failed"), std::string::npos) << r.err;
}

TEST(Cli, BadChaosSpecIsAPermanentErrorKillingTheSweepFast) {
  const char* exe = std::getenv("HXMESH_EXE");
  if (!exe || !*exe || !std::filesystem::exists(exe))
    GTEST_SKIP() << "HXMESH_EXE not set (ctest sets it to the hxmesh binary)";

  // A malformed spec makes the child exit 2 — a config error no retry can
  // fix. The orchestrator must not burn the retry budget: one attempt,
  // everything else skipped, and the child's message reaches the report.
  // "drop" names no fault class, so it fails the same way.
  for (const char* spec : {"kill:1.5", "drop:1"}) {
    const std::string dir = fresh_dir("cli_chaos_badspec");
    ensure_dir(dir);
    const ChaosEnv chaos(spec);
    auto r = run({"sweep", "--topo", "hx2mesh:2x2", "--pattern",
                  "perm:msg=64KiB", "--shards", "2", "--workers", "1",
                  "--retries", "5", "--threads", "1", "--cache-dir",
                  dir + "/cache"});
    EXPECT_EQ(r.code, 1) << spec;
    EXPECT_NE(r.err.find("permanent config error, not retried"),
              std::string::npos)
        << r.err;
    EXPECT_NE(r.err.find("after 1 attempt(s)"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("skipped"), std::string::npos) << r.err;
    // The child's own stderr message survived into the shard report.
    EXPECT_NE(r.err.find("HXMESH_CHAOS"), std::string::npos) << r.err;
  }
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

TEST(Cli, ProgressFlagIsSweepOnly) {
  EXPECT_EQ(run({"run", "--topo", "hx2mesh:2x2", "--pattern", "shift:1",
                 "--progress"})
                .code,
            2);
  EXPECT_EQ(run({"shard", "--topo", "hx2mesh:2x2", "--pattern", "shift:1",
                 "--shards", "2", "--shard", "0", "--progress"})
                .code,
            2);
}

TEST(Cli, RemovedFabricFlagsAreUsageErrors) {
  // Sweeps run on one machine: the remote-host flags and the serve daemon
  // are gone, and naming them is a usage error rather than a silent no-op.
  const std::vector<std::vector<std::string>> removed = {
      {"--hosts", "a:1"},
      {"--lease-timeout", "5"},
      {"--blacklist-after", "1"}};
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

TEST(Cli, ShardedSweepProgressReportsEveryShard) {
  const char* exe = std::getenv("HXMESH_EXE");
  if (!exe || !*exe || !std::filesystem::exists(exe))
    GTEST_SKIP() << "HXMESH_EXE not set (ctest sets it to the hxmesh binary)";

  const std::string dir = fresh_dir("cli_sweep_progress");
  ensure_dir(dir);
  auto r = run({"sweep", "--topo", "hx2mesh:2x2", "--pattern",
                "shift:1:msg=64KiB", "--pattern", "perm:msg=64KiB",
                "--threads", "1", "--shards", "2", "--workers", "2",
                "--progress", "--cache-dir", dir + "/cache"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const char* line :
       {"progress: shard 0 ok", "progress: shard 1 ok", "2/2 shards done"})
    EXPECT_NE(r.err.find(line), std::string::npos) << r.err;
}

}  // namespace
}  // namespace hxmesh
