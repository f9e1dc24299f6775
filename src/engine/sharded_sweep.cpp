#include "engine/sharded_sweep.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/fsio.hpp"
#include "core/subprocess.hpp"
#include "core/thread_pool.hpp"
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

/// One shard, run as a child process.
struct ShardChildJob {
  std::string cache_dir;    ///< shared store; holds the grid handoff file
  std::string fingerprint;  ///< GridPlan fingerprint naming that file
  unsigned shards = 1;      ///< partition size
  unsigned shard = 0;       ///< which block of the partition
  int threads = 0;          ///< the child's --threads (0 = its default)
  double timeout_s = 0.0;   ///< watchdog deadline (0 = none)
};

/// Runs `job` as a watched `hxmesh shard` child of this executable. The
/// child reads the grid from ResultCache::shard_grid_path, which the
/// caller has written, and writes its manifest to
/// ResultCache::shard_manifest_path (a stale manifest is removed first,
/// so it can never stand in for this run). The child's stderr tail is
/// captured for the failure report.
CommandResult run_shard_child(const ShardChildJob& job) {
  const ResultCache layout(job.cache_dir);
  remove_file(
      layout.shard_manifest_path(job.fingerprint, job.shard, job.shards));
  std::vector<std::string> argv = {self_exe_path(),
                                   "shard",
                                   "--config",
                                   layout.shard_grid_path(job.fingerprint),
                                   "--shards",
                                   std::to_string(job.shards),
                                   "--shard",
                                   std::to_string(job.shard),
                                   "--cache-dir",
                                   job.cache_dir};
  if (job.threads > 0) {
    argv.push_back("--threads");
    argv.push_back(std::to_string(job.threads));
  }
  CommandOptions options;
  options.timeout_s = job.timeout_s;
  options.capture_stderr = true;
  return run_command_watched(argv, options);
}

/// "ok", or "<status>: <error> — <last stderr line>" for a failed child.
std::string describe(const CommandResult& r) {
  if (r.ok()) return "ok";
  std::string text = std::string(command_status_name(r.status)) + ": " +
                     r.error;
  if (const std::string tail = last_line(r.stderr_tail); !tail.empty())
    text += " — " + tail;
  return text;
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
  ExperimentHarness harness(opt.threads);

  // Parent and children must agree on the grid byte for byte, so the
  // runner writes the canonical grids document and every worker parses
  // that file instead of re-receiving axis flags.
  ensure_dir(cache.shard_meta_dir());
  write_file_atomic(cache.shard_grid_path(fingerprint),
                    render_grids_json(grids));

  // A block with no cells needs no child: its manifest comes from an
  // in-process run_shard over the empty range, before any child runs, so
  // its counter delta is zero. It is stored like a child's, so the
  // metadata directory holds every shard's manifest. The rest are
  // launched.
  std::vector<ShardManifest> manifests(shards);
  std::vector<std::uint64_t> costs(shards, 0);
  std::vector<unsigned> order;
  for (unsigned i = 0; i < shards; ++i) {
    const auto [lo, hi] = plan.shard_cells(i, shards);
    if (lo == hi) {
      manifests[i] = run_shard(harness, plan, i, shards, cache);
      write_file_atomic(cache.shard_manifest_path(fingerprint, i, shards),
                        render_manifest(manifests[i]));
      continue;
    }
    for (std::size_t c = lo; c < hi; ++c) costs[i] += plan.cell_cost(c);
    order.push_back(i);
  }
  const unsigned busy = static_cast<unsigned>(order.size());

  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers = std::min(opt.workers ? opt.workers : hardware,
                                    shards);
  const unsigned slots = std::max(1u, std::min(workers, busy));
  // Each child gets an explicit thread budget: the user's --threads
  // verbatim, else the hardware split across the children that can run
  // at once — K children must not each default to a full hardware-width
  // pool.
  const int child_threads =
      opt.threads > 0 ? opt.threads
                      : static_cast<int>(std::max(1u, hardware / slots));

  // Heaviest shards first: parallel_for hands out indices in ascending
  // order, so the worst tail is not one heavy block starting last. The
  // order is a scheduling hint only — coverage and row order never
  // depend on it.
  std::stable_sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
    return costs[a] > costs[b];
  });

  std::mutex report_mutex;
  unsigned failed = 0;
  ThreadPool(static_cast<int>(slots)).parallel_for(
      order.size(), [&](std::size_t k) {
        const unsigned shard = order[k];
        const CommandResult r =
            run_shard_child({cache.dir(), fingerprint, shards, shard,
                             child_threads, opt.shard_timeout_s});
        std::lock_guard lock(report_mutex);
        if (!r.ok()) ++failed;
        err << "shard " << shard << ": " << describe(r) << "\n";
        err.flush();
      });
  if (failed > 0)
    throw std::runtime_error("sweep: " + std::to_string(failed) + " of " +
                             std::to_string(shards) + " shards failed");

  for (unsigned i : order) {
    const std::string path = cache.shard_manifest_path(fingerprint, i, shards);
    const std::optional<std::string> text = read_file(path);
    if (!text)
      throw std::runtime_error("sweep: shard manifest missing: " + path);
    manifests[i] = parse_manifest(*text);
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
  return harness.run_cells(plan, 0, plan.total_cells(), &cache);
}

}  // namespace hxmesh::engine
