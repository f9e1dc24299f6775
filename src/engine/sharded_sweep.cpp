#include "engine/sharded_sweep.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/fsio.hpp"
#include "core/hash.hpp"
#include "core/subprocess.hpp"
#include "engine/shard.hpp"

namespace hxmesh::engine {

namespace {

/// Last non-empty line of a text block, trimmed — where a crashing
/// child's "hxmesh: <what>" message lands.
std::string last_line(const std::string& text) {
  const std::size_t end = text.find_last_not_of(" \t\r\n");
  if (end == std::string::npos) return "";
  std::size_t start = text.find_last_of('\n', end);
  start = start == std::string::npos ? 0 : start + 1;
  return text.substr(start, end - start + 1);
}

/// Short status word for one shard attempt: "ok", "failed (exit N)", or
/// the outcome name ("timed-out", "signaled", "spawn-failed", "skipped").
std::string describe_run(const ShardRun& run) {
  if (run.ok()) return "ok";
  if (run.outcome == ShardOutcome::kExited)
    return "failed (exit " + std::to_string(run.exit_code) + ")";
  return outcome_name(run.outcome);
}

void report_runs(const std::vector<ShardRun>& runs, std::ostream& err) {
  for (const ShardRun& run : runs) {
    if (run.ok() && run.attempts > 1)
      err << "shard " << run.shard << ": succeeded on attempt "
          << run.attempts << " [" << history_names(run) << "]\n";
    if (run.ok()) continue;
    err << "shard " << run.shard << ": ";
    if (run.outcome == ShardOutcome::kExited) {
      err << "failed with exit code " << run.exit_code;
      if (run.exit_code == 2) err << " (permanent config error, not retried)";
    } else {
      err << outcome_name(run.outcome);
    }
    err << " after " << run.attempts << " attempt(s)";
    if (!run.history.empty()) err << " [" << history_names(run) << "]";
    if (!run.error.empty()) err << ": " << run.error;
    err << "\n";
  }
}

/// One attempt of one shard, run as a child process.
struct ShardChildJob {
  std::string cache_dir;    ///< shared store; holds the grid handoff file
  std::string fingerprint;  ///< GridPlan fingerprint naming that file
  unsigned shards = 1;      ///< partition size
  unsigned shard = 0;       ///< which block of the partition
  int attempt = 1;          ///< forwarded so chaos schedules line up
  int threads = 0;          ///< the child's --threads (0 = its default)
  double timeout_s = 0.0;   ///< watchdog deadline (0 = none)
};

/// Runs `job` as a watched `hxmesh shard` child of this executable. The
/// child reads the grid from ResultCache::shard_grid_path, which the
/// caller has written, and writes its manifest to
/// ResultCache::shard_manifest_path (a stale manifest is removed first,
/// so it can never stand in for this attempt). The child's fate maps one
/// to one onto ShardOutcome; a failure's error text ends with the child's
/// last stderr line, where its "hxmesh: <what>" message lands.
ShardAttempt run_shard_child(const ShardChildJob& job) {
  const ResultCache layout(job.cache_dir);
  const std::string manifest =
      layout.shard_manifest_path(job.fingerprint, job.shard, job.shards);
  remove_file(manifest);
  std::vector<std::string> argv = {self_exe_path(),
                                   "shard",
                                   "--config",
                                   layout.shard_grid_path(job.fingerprint),
                                   "--shards",
                                   std::to_string(job.shards),
                                   "--shard",
                                   std::to_string(job.shard),
                                   "--manifest",
                                   manifest,
                                   "--cache-dir",
                                   job.cache_dir,
                                   "--attempt",
                                   std::to_string(job.attempt)};
  if (job.threads > 0) {
    argv.push_back("--threads");
    argv.push_back(std::to_string(job.threads));
  }
  CommandOptions options;
  options.timeout_s = job.timeout_s;
  options.capture_stderr = true;
  const CommandResult r = run_command_watched(argv, options);

  ShardAttempt a;
  switch (r.status) {
    case CommandStatus::kExited: a.outcome = ShardOutcome::kExited; break;
    case CommandStatus::kSignaled: a.outcome = ShardOutcome::kSignaled; break;
    case CommandStatus::kTimedOut: a.outcome = ShardOutcome::kTimedOut; break;
    case CommandStatus::kSpawnFailed:
      a.outcome = ShardOutcome::kSpawnFailed;
      break;
  }
  a.exit_code = r.shell_code();
  if (!a.ok()) {
    a.error = r.error;
    const std::string tail = last_line(r.stderr_tail);
    if (!tail.empty()) a.error += a.error.empty() ? tail : " — " + tail;
  }
  return a;
}

}  // namespace

std::vector<SweepRow> run_sharded_sweep(const std::vector<GridSpec>& grids,
                                        const ShardedSweepOptions& opt,
                                        ResultCache& cache,
                                        std::ostream& err) {
  if (opt.shards == 0)
    throw std::invalid_argument("run_sharded_sweep: need at least one shard");
  const unsigned shards = opt.shards;
  const GridPlan plan(grids);
  const std::string fingerprint = plan.fingerprint();

  // Parent and children must agree on the grid byte for byte, so the
  // runner writes the canonical grids document and every worker parses
  // that file instead of re-receiving axis flags.
  ensure_dir(cache.shard_meta_dir());
  write_file_atomic(cache.shard_grid_path(fingerprint),
                    render_grids_json(grids));

  std::vector<std::uint64_t> costs(shards, 0);
  for (unsigned i = 0; i < shards; ++i) {
    const auto [lo, hi] = plan.shard_cells(i, shards);
    for (std::size_t c = lo; c < hi; ++c) costs[i] += plan.cell_cost(c);
  }
  const unsigned busy = static_cast<unsigned>(
      std::count_if(costs.begin(), costs.end(),
                    [](std::uint64_t cost) { return cost > 0; }));

  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers = std::min(opt.workers ? opt.workers : hardware,
                                    shards);
  // Each child gets an explicit thread budget: the user's --threads
  // verbatim, else the hardware split across the children that can run
  // at once with cells to compute — K children must not each default to
  // a full hardware-width pool, and an empty block needs no share.
  const int child_threads =
      opt.threads > 0
          ? opt.threads
          : static_cast<int>(std::max(
                1u, hardware / std::max(1u, std::min(workers, busy))));

  // Heaviest shards first: with a dynamic queue, the worst tail is one
  // heavy block starting last. The order is a scheduling hint only —
  // coverage and row order never depend on it.
  std::vector<unsigned> order(shards);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
    return costs[a] > costs[b];
  });

  auto launch = [&](unsigned shard, int attempt) {
    return run_shard_child({cache.dir(), fingerprint, shards, shard, attempt,
                            child_threads, opt.shard_timeout_s});
  };

  // Progress calls are serialized under the orchestrator's lock.
  ShardProgress progress;
  if (opt.progress)
    progress = [&](const ShardRun& run, unsigned completed, unsigned total) {
      err << "progress: shard " << run.shard << " " << describe_run(run)
          << " (attempt " << run.attempts << ") — " << completed << "/"
          << total << " shards done\n";
      err.flush();
    };

  RetryPolicy policy;
  policy.max_attempts = 1 + opt.retries;
  policy.backoff_base_s = opt.retry_backoff_s;
  // Jitter seeded from the grid identity: reruns of the same sweep replay
  // the same backoff schedule.
  policy.seed = Fnv1a().update(fingerprint).digest();

  const std::vector<ShardRun> runs =
      run_shard_jobs(shards, workers, policy, launch, progress, order);
  report_runs(runs, err);
  const auto failed = std::count_if(runs.begin(), runs.end(),
                                    [](const ShardRun& r) { return !r.ok(); });
  if (failed > 0)
    throw std::runtime_error("sweep: " + std::to_string(failed) + " of " +
                             std::to_string(shards) + " shards failed");

  std::vector<ShardManifest> manifests;
  manifests.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) {
    const std::string path = cache.shard_manifest_path(fingerprint, i, shards);
    const std::optional<std::string> text = read_file(path);
    if (!text)
      throw std::runtime_error("sweep: shard manifest missing: " + path);
    manifests.push_back(parse_manifest(*text));
  }
  if (const std::string problem = merge_error(plan, manifests);
      !problem.empty())
    throw std::runtime_error("sweep: shard merge failed: " + problem);

  // The children's counters join this process's registry, so the sweep's
  // report shows fleet totals.
  std::uint64_t hits = 0, computed = 0;
  for (const ShardManifest& m : manifests) {
    hits += m.hits;
    computed += m.computed;
    counters::fold(m.counters);
  }
  err << "shards: " << shards << " ok over " << workers << " worker(s)"
      << "; cells: " << hits << " hits, " << computed << " computed\n";

  // Merge: re-read the whole plan through the cache the workers filled.
  // Every cell hits, and %.17g entry rendering makes the merged rows
  // byte-identical to a single-process run of the same grid.
  ExperimentHarness harness(opt.threads);
  return harness.run_cells(plan, 0, plan.total_cells(), &cache);
}

}  // namespace hxmesh::engine
