#include "engine/sharded_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "core/fsio.hpp"
#include "core/hash.hpp"
#include "core/subprocess.hpp"
#include "engine/fabric.hpp"

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

void report_hosts(const std::vector<HostSpec>& hosts,
                  const std::vector<HostReport>& reports, std::ostream& err) {
  std::size_t blacklisted = 0;
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    const HostReport& rep = reports[h];
    err << "host " << hosts[h].name() << ": " << rep.dispatched
        << " leased, " << rep.completed << " completed, " << rep.job_failures
        << " job failure(s), " << rep.faults << " fault(s)";
    if (rep.blacklisted) {
      err << " — blacklisted";
      ++blacklisted;
    }
    if (!rep.last_error.empty()) err << " (last: " << rep.last_error << ")";
    err << "\n";
  }
  if (blacklisted == hosts.size())
    err << "hosts: all " << hosts.size()
        << " blacklisted — degraded to local-only execution\n";
}

}  // namespace

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
  // that file instead of re-receiving axis flags. The same document rides
  // inside every remote job lease.
  const std::string grids_text = render_grids_json(grids);
  ensure_dir(cache.shard_meta_dir());
  write_file_atomic(cache.shard_grid_path(fingerprint), grids_text);

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

  std::mutex err_mutex;  // progress and chaos lines come from worker threads
  ShardProgress progress;
  if (opt.progress)
    progress = [&](const ShardRun& run, unsigned completed, unsigned total) {
      std::lock_guard lock(err_mutex);
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

  // Remote dispatch: each host is one extra worker slot driven by the
  // health state machine. Network chaos (drop/delay) applies here, on the
  // orchestrator side of the wire.
  const std::vector<HostSpec>& hosts = opt.hosts;
  const double lease_s =
      opt.lease_timeout_s > 0
          ? opt.lease_timeout_s
          : (opt.shard_timeout_s > 0 ? opt.shard_timeout_s + 6.0 : 30.0);
  HostPolicy host_policy;
  if (opt.blacklist_after > 0)
    host_policy.blacklist_after = opt.blacklist_after;
  host_policy.seed = policy.seed;

  auto remote = [&](unsigned h, unsigned shard, int attempt) {
    if (opt.net_chaos.net_enabled()) {
      const NetChaosAction act =
          chaos_net_action(opt.net_chaos, h, shard, attempt);
      if (act != NetChaosAction::kNone) {
        std::lock_guard lock(err_mutex);
        err << "chaos: host " << hosts[h].name() << " shard " << shard
            << " attempt " << attempt << ": " << net_chaos_action_name(act)
            << "\n";
        err.flush();
      }
      if (act == NetChaosAction::kDrop)
        return host_fault("chaos: dropped connection");
      if (act == NetChaosAction::kDelay)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kNetChaosDelayS));
    }
    FabricJob job;
    job.fingerprint = fingerprint;
    job.grids_json = grids_text;
    job.shards = shards;
    job.shard = shard;
    job.attempt = attempt;
    job.timeout_s = opt.shard_timeout_s;
    FabricResult r = fabric_run_job(hosts[h], job, lease_s);
    if (!r.attempt.ok()) return r.attempt;
    // Admission control: every remote blob must re-verify its content
    // checksum before it may enter the shared store. One bad blob voids
    // the whole lease — the shard is re-leased and recomputed, never
    // replayed from the corrupt bytes.
    for (const auto& [key, text] : r.blobs)
      if (!cache.adopt_blob(key, text))
        return host_fault("corrupt wire blob for cell " + key);
    write_file_atomic(cache.shard_manifest_path(fingerprint, shard, shards),
                      r.manifest_json);
    return r.attempt;
  };
  auto probe = [&](unsigned h) { return fabric_ping(hosts[h], 2.0); };

  std::vector<HostReport> host_reports;
  const std::vector<ShardRun> runs = run_shard_jobs_distributed(
      shards, workers, policy, launch, static_cast<unsigned>(hosts.size()),
      remote, probe, host_policy, &host_reports, progress, order);
  report_runs(runs, err);
  if (!hosts.empty()) report_hosts(hosts, host_reports, err);
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
  err << "shards: " << shards << " ok over " << workers << " worker(s)";
  if (!hosts.empty()) err << " + " << hosts.size() << " host(s)";
  err << "; cells: " << hits << " hits, " << computed << " computed\n";

  // Merge: re-read the whole plan through the cache the workers filled.
  // Every cell hits, and %.17g entry rendering makes the merged rows
  // byte-identical to a single-process run of the same grid.
  ExperimentHarness harness(opt.threads);
  return harness.run_cells(plan, 0, plan.total_cells(), &cache);
}

}  // namespace hxmesh::engine
