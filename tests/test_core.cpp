// Core utilities: units, RNG determinism/uniformity, statistics, tables,
// the HyperX topology class added for the Table II reproduction, the
// watchdog subprocess runner, token splitting, and the counter registry.
#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <string>
#include <thread>

#include "core/counters.hpp"
#include "core/fsio.hpp"
#include "core/json_parse.hpp"
#include "core/parse_num.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/subprocess.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "topo/hyperx.hpp"

namespace hxmesh {
namespace {

// ------------------------------------------------------------- units -----
TEST(Units, Conversions) {
  EXPECT_EQ(s_to_ps(1.0), kPsPerSec);
  EXPECT_DOUBLE_EQ(ps_to_s(kPsPerMs), 1e-3);
  EXPECT_EQ(serialization_ps(8192, 50e9), static_cast<picoseconds>(163840));
  EXPECT_EQ(4 * KiB, 4096u);
  EXPECT_EQ(2 * MB, 2000000u);
}

// --------------------------------------------------------------- rng -----
TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ------------------------------------------------------------- stats -----
TEST(Stats, SummaryOfKnownSample) {
  Summary s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(Stats, EmptySampleIsZero) {
  Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 100), 10.0);
}

TEST(Stats, WeightedCdfAccumulates) {
  auto cdf = weighted_cdf({1, 2, 4}, {1, 1, 2});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.25);
  EXPECT_DOUBLE_EQ(cdf[1].fraction, 0.5);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(TableTest, RendersAlignedColumns) {
  Table t({"a", "long header"});
  t.add_row({"x", "1"});
  t.add_row({"yy"});
  std::string s = t.str();
  EXPECT_NE(s.find("long header"), std::string::npos);
  EXPECT_NE(s.find("yy"), std::string::npos);
}

// ------------------------------------------------------------ HyperX -----
TEST(HyperXTopo, StructureAndDiameter) {
  topo::HyperX hx({.x = 8, .y = 8});
  EXPECT_EQ(hx.num_endpoints(), 64);
  // True switch-based HyperX: endpoint, <=2 switch hops, endpoint.
  EXPECT_EQ(hx.diameter(), 4);
  // Table II counts the Hx1Mesh-equivalent diameter.
  EXPECT_EQ(hx.diameter_formula(), 4);
  topo::HyperX big({.x = 128, .y = 128});
  EXPECT_EQ(big.diameter_formula(), 8);  // rail trees at x=128 (Table II)
}

TEST(HyperXTopo, HopDistanceMatchesBfs) {
  topo::HyperX hx({.x = 6, .y = 5});
  for (int dst = 0; dst < hx.num_endpoints(); dst += 3) {
    auto dist = hx.graph().dist_to(hx.endpoint_node(dst));
    for (int src = 0; src < hx.num_endpoints(); ++src)
      ASSERT_EQ(hx.hop_distance(src, dst), dist[hx.endpoint_node(src)]);
  }
}

TEST(HyperXTopo, SampledPathsAreMinimal) {
  topo::HyperX hx({.x = 6, .y = 6});
  Rng rng(5);
  std::vector<topo::LinkId> path;
  for (int trial = 0; trial < 60; ++trial) {
    int src = static_cast<int>(rng.uniform(hx.num_endpoints()));
    int dst = static_cast<int>(rng.uniform(hx.num_endpoints()));
    if (src == dst) continue;
    hx.sample_path_stratified(src, dst, trial % 8, 8, rng, path);
    topo::NodeId cur = hx.endpoint_node(src);
    for (auto l : path) {
      ASSERT_EQ(hx.graph().link(l).src, cur);
      cur = hx.graph().link(l).dst;
    }
    EXPECT_EQ(cur, hx.endpoint_node(dst));
    EXPECT_EQ(static_cast<int>(path.size()), hx.hop_distance(src, dst));
  }
}

TEST(HyperXTopo, RejectsBadParams) {
  EXPECT_THROW(topo::HyperX({.x = 1, .y = 8}), std::invalid_argument);
}

// ---------------------------------------------------------- watchdog -----
TEST(Watchdog, CleanExitIsOkAndZero) {
  const CommandResult r = run_command_watched({"/bin/sh", "-c", "exit 0"});
  EXPECT_EQ(r.status, CommandStatus::kExited);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.shell_code(), 0);
  EXPECT_EQ(r.error, "");
}

TEST(Watchdog, NonZeroExitCarriesTheCode) {
  const CommandResult r = run_command_watched({"/bin/sh", "-c", "exit 3"});
  EXPECT_EQ(r.status, CommandStatus::kExited);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_EQ(r.shell_code(), 3);
  EXPECT_EQ(r.error, "exit code 3");
}

TEST(Watchdog, DeadlineReapsASleepingChild) {
  // A hung shard must never block the sweep past its deadline: SIGTERM at
  // the timeout reaps a well-behaved sleeper in far less than its 30 s.
  CommandOptions options;
  options.timeout_s = 0.2;
  options.grace_s = 5.0;  // never reached: sleep dies on SIGTERM
  const auto start = std::chrono::steady_clock::now();
  const CommandResult r =
      run_command_watched({"/bin/sh", "-c", "sleep 30"}, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(r.status, CommandStatus::kTimedOut);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("timed out after 0.2s"), std::string::npos)
      << r.error;
  EXPECT_NE(r.error.find("SIGTERM"), std::string::npos) << r.error;
  EXPECT_EQ(r.shell_code(), 128 + SIGKILL);  // shell convention for a kill
  EXPECT_LT(elapsed, 5.0) << "watchdog failed to reap within the deadline";
}

TEST(Watchdog, DeadlineKillsTheChildsWholeProcessGroup) {
  // The shell's backgrounded sleeper is a grandchild: signaling only the
  // shell would orphan it, and it would hold every pipe it inherited (a
  // test runner's stdout) open for 30 s.
  const std::string pid_file =
      (std::filesystem::path(::testing::TempDir()) / "watchdog_grandchild")
          .string();
  std::filesystem::remove(pid_file);
  // As a subreaper this process inherits the orphan and can reap it, so
  // "dead" means ESRCH rather than a zombie nobody waits for.
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  CommandOptions options;
  options.timeout_s = 0.2;
  const CommandResult r = run_command_watched(
      {"/bin/sh", "-c", "sleep 30 & echo $! > '" + pid_file + "'; wait"},
      options);
  EXPECT_EQ(r.status, CommandStatus::kTimedOut);
  const std::optional<std::string> text = read_file(pid_file);
  ASSERT_TRUE(text.has_value());
  const pid_t grandchild = std::stoi(*text);
  for (int i = 0; i < 500; ++i) {
    int status = 0;
    if (::waitpid(grandchild, &status, WNOHANG) == grandchild) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  errno = 0;
  const bool gone = ::kill(grandchild, 0) != 0 && errno == ESRCH;
  if (!gone) {  // never leak the sleeper into the rest of the run
    ::kill(grandchild, SIGKILL);
    ::waitpid(grandchild, nullptr, 0);
  }
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);
  EXPECT_TRUE(gone) << "grandchild " << grandchild << " outlived the watchdog";
}

TEST(Watchdog, WatchedChildDiesWithItsWatcher) {
  // A watched child leads its own process group, so a terminal's Ctrl-C
  // no longer reaches it: if the watching process is killed, the child
  // must die with it instead of running — or hanging — on unwatched.
  const std::string pid_file =
      (std::filesystem::path(::testing::TempDir()) / "watchdog_orphan")
          .string();
  std::filesystem::remove(pid_file);
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  const pid_t watcher = ::fork();
  ASSERT_GE(watcher, 0);
  if (watcher == 0) {
    CommandOptions options;
    options.timeout_s = 30.0;
    run_command_watched(
        {"/bin/sh", "-c", "echo $$ > '" + pid_file + "'; exec sleep 30"},
        options);
    ::_exit(0);
  }
  std::optional<std::string> text;
  for (int i = 0; i < 500 && !(text && !text->empty() && text->back() == '\n');
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    text = read_file(pid_file);
  }
  ::kill(watcher, SIGKILL);
  ::waitpid(watcher, nullptr, 0);
  ASSERT_TRUE(text.has_value());
  const pid_t child = std::stoi(*text);
  // The orphan is re-parented to this subreaper; reap it once it dies.
  int status = 0;
  bool reaped = false;
  for (int i = 0; i < 500 && !reaped; ++i) {
    reaped = ::waitpid(child, &status, WNOHANG) == child;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!reaped) {  // never leak the sleeper into the rest of the run
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
  }
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);
  ASSERT_TRUE(reaped) << "child " << child << " outlived its watcher";
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
}

TEST(Watchdog, EscalatesToSigkillWhenSigtermIsIgnored) {
  // A child that traps SIGTERM only dies when the grace period expires and
  // the watchdog escalates to SIGKILL — the error string records both.
  CommandOptions options;
  options.timeout_s = 0.1;
  options.grace_s = 0.2;
  const CommandResult r = run_command_watched(
      {"/bin/sh", "-c", "trap '' TERM; while :; do sleep 0.05; done"},
      options);
  EXPECT_EQ(r.status, CommandStatus::kTimedOut);
  EXPECT_NE(r.error.find("SIGTERM, then SIGKILL"), std::string::npos)
      << r.error;
  EXPECT_EQ(r.shell_code(), 128 + SIGKILL);
}

TEST(Watchdog, CrashedChildReportsItsSignal) {
  const CommandResult r =
      run_command_watched({"/bin/sh", "-c", "kill -9 $$"});
  EXPECT_EQ(r.status, CommandStatus::kSignaled);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.term_signal, SIGKILL);
  EXPECT_EQ(r.shell_code(), 128 + SIGKILL);
  EXPECT_EQ(r.error, "killed by signal 9");
}

TEST(Watchdog, SpawnFailureIsReportedNotThrown) {
  const CommandResult r =
      run_command_watched({"/definitely/not/a/real/binary"});
  EXPECT_EQ(r.status, CommandStatus::kSpawnFailed);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.shell_code(), -1);
  EXPECT_NE(r.error.find("cannot spawn"), std::string::npos) << r.error;
}

TEST(Watchdog, CapturesStderrTailOfAFailingChild) {
  CommandOptions options;
  options.capture_stderr = true;
  const CommandResult r = run_command_watched(
      {"/bin/sh", "-c", "echo oops >&2; exit 3"}, options);
  EXPECT_EQ(r.status, CommandStatus::kExited);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.stderr_tail.find("oops"), std::string::npos) << r.stderr_tail;

  // The tail is bounded and keeps the *end* — where crash messages land.
  options.stderr_limit = 10;
  const CommandResult bounded = run_command_watched(
      {"/bin/sh", "-c", "printf 'xxxxxxxxxxxxxxxxTHE-END\\n' >&2"}, options);
  EXPECT_LE(bounded.stderr_tail.size(), 10u);
  EXPECT_NE(bounded.stderr_tail.find("THE-END"), std::string::npos)
      << bounded.stderr_tail;
}

TEST(Watchdog, StatusNamesAreStable) {
  EXPECT_STREQ(command_status_name(CommandStatus::kExited), "exited");
  EXPECT_STREQ(command_status_name(CommandStatus::kSignaled), "signaled");
  EXPECT_STREQ(command_status_name(CommandStatus::kTimedOut), "timed-out");
  EXPECT_STREQ(command_status_name(CommandStatus::kSpawnFailed),
               "spawn-failed");
}

// -------------------------------------------------------------- fsio -----
TEST(Fsio, RenameFileMovesAcrossDirectoriesCreatingParents) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "rename_file_test";
  fs::remove_all(dir);
  const std::string src = (dir / "entry.json").string();
  const std::string dst = (dir / "quarantine" / "entry.json").string();
  write_file_atomic(src, "evidence\n");

  EXPECT_TRUE(rename_file(src, dst));  // creates quarantine/ on the way
  EXPECT_FALSE(fs::exists(src));
  const auto moved = read_file(dst);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(*moved, "evidence\n");

  // Renaming something that is not there reports failure, not a throw.
  EXPECT_FALSE(rename_file(src, dst + ".2"));
}

// ------------------------------------------------------------- split -----
TEST(Split, KeepsEmptyParts) {
  using Parts = std::vector<std::string>;
  EXPECT_EQ(split("", ':'), Parts{""});
  EXPECT_EQ(split("a", ':'), Parts{"a"});
  EXPECT_EQ(split("a::b", ':'), (Parts{"a", "", "b"}));
  EXPECT_EQ(split("a,b,", ','), (Parts{"a", "b", ""}));
  EXPECT_EQ(split(":", ':'), (Parts{"", ""}));
}

// ---------------------------------------------------------- counters -----
TEST(Counters, SnapshotIsSortedAndSharesValuesByName) {
  Counter zeta("test.zeta");
  Counter alpha("test.alpha");
  Counter alpha_too("test.alpha");
  const counters::Map before = counters::snapshot();
  alpha.add();
  alpha_too.add(2);
  zeta.add(5);
  const counters::Map after = counters::snapshot();
  EXPECT_TRUE(std::is_sorted(after.begin(), after.end()));
  EXPECT_LT(std::distance(after.begin(), after.find("test.alpha")),
            std::distance(after.begin(), after.find("test.zeta")));
  EXPECT_EQ(after.at("test.alpha") - before.at("test.alpha"), 3u);
  EXPECT_EQ(after.at("test.zeta") - before.at("test.zeta"), 5u);
}

TEST(Counters, DeltaAndFold) {
  const counters::Map before = {{"a", 2}, {"b", 7}};
  const counters::Map after = {{"a", 5}, {"b", 7}, {"c", 4}};
  // Every name of `after`, a name new since `before` counting from 0.
  EXPECT_EQ(counters::delta(before, after),
            (counters::Map{{"a", 3}, {"b", 0}, {"c", 4}}));

  // Folding adds into the registry and registers unknown names.
  Counter known("test.fold_known");
  known.add(10);
  const counters::Map start = counters::snapshot();
  EXPECT_EQ(start.count("test.fold_new"), 0u);
  counters::fold({{"test.fold_known", 5}, {"test.fold_new", 3}});
  const counters::Map moved = counters::delta(start, counters::snapshot());
  EXPECT_EQ(moved.at("test.fold_known"), 5u);
  EXPECT_EQ(moved.at("test.fold_new"), 3u);
  known.add();
  EXPECT_EQ(counters::snapshot().at("test.fold_known"),
            start.at("test.fold_known") + 6);
}

TEST(Counters, JsonRoundTripRejectsNonIntegers) {
  const counters::Map map = {{"batch.cells_executed", 13},
                             {"cache.quarantined", 0}};
  EXPECT_EQ(counters::to_json(map),
            "{\"batch.cells_executed\":13,\"cache.quarantined\":0}");
  EXPECT_EQ(counters::from_json(parse_json(counters::to_json(map))), map);
  EXPECT_EQ(counters::to_json({}), "{}");
  for (const char* bad : {"[]", "{\"a\":1.5}", "{\"a\":-1}", "{\"a\":null}"})
    EXPECT_THROW(counters::from_json(parse_json(bad)), std::invalid_argument)
        << bad;
}

}  // namespace
}  // namespace hxmesh
