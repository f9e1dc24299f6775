#include "engine/shard.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/hash.hpp"
#include "core/json_parse.hpp"
#include "core/parse_num.hpp"

namespace hxmesh::engine {

namespace {

// Multiplicative jitter in [0.5, 1.0] on min(max, base * 2^(n-1)), taken
// from `digest` — hashed, not drawn — so the same inputs always wait the
// same time.
double jittered_backoff_s(double base_s, double max_s, unsigned n,
                          std::uint64_t digest) {
  double delay = base_s;
  for (unsigned i = 1; i < n && delay < max_s; ++i) delay *= 2.0;
  delay = std::min(delay, std::max(max_s, 0.0));
  const double u = static_cast<double>(digest >> 11) * 0x1.0p-53;
  return delay * (0.5 + 0.5 * u);
}

}  // namespace

std::string render_manifest(const ShardManifest& manifest) {
  std::string out =
      "{\"schema\":" + std::to_string(ShardManifest::kSchemaVersion);
  out += ",\"grid\":\"" + manifest.fingerprint + "\"";
  out += ",\"shard\":" + std::to_string(manifest.shard);
  out += ",\"shards\":" + std::to_string(manifest.shards);
  out += ",\"cell_lo\":" + std::to_string(manifest.cell_lo);
  out += ",\"cell_hi\":" + std::to_string(manifest.cell_hi);
  out += ",\"hits\":" + std::to_string(manifest.hits);
  out += ",\"computed\":" + std::to_string(manifest.computed);
  out += ",\"keys\":[";
  for (std::size_t i = 0; i < manifest.keys.size(); ++i) {
    out += (i ? "," : "");
    out += "\"" + manifest.keys[i] + "\"";
  }
  out += "],\"counters\":" + counters::to_json(manifest.counters) + "}\n";
  return out;
}

ShardManifest parse_manifest(const std::string& text) {
  const JsonValue doc = parse_json(text);
  if (!doc.is_object())
    throw std::invalid_argument("shard manifest: not a JSON object");
  const JsonValue* schema = doc.get("schema");
  if (!schema || schema->as_int() != ShardManifest::kSchemaVersion)
    throw std::invalid_argument("shard manifest: schema mismatch");

  auto u64 = [&](const char* key) {
    const JsonValue* v = doc.get(key);
    if (!v)
      throw std::invalid_argument(std::string("shard manifest: missing ") +
                                  key);
    return v->as_u64();
  };

  ShardManifest manifest;
  const JsonValue* grid = doc.get("grid");
  if (!grid || !grid->is_string())
    throw std::invalid_argument("shard manifest: missing grid fingerprint");
  manifest.fingerprint = grid->str;
  manifest.shard = static_cast<unsigned>(u64("shard"));
  manifest.shards = static_cast<unsigned>(u64("shards"));
  manifest.cell_lo = u64("cell_lo");
  manifest.cell_hi = u64("cell_hi");
  manifest.hits = u64("hits");
  manifest.computed = u64("computed");
  if (manifest.shards < 1)
    throw std::invalid_argument("shard manifest: zero shard count");
  if (manifest.shard >= manifest.shards)
    throw std::invalid_argument("shard manifest: shard index out of range");
  if (manifest.cell_lo > manifest.cell_hi)
    throw std::invalid_argument("shard manifest: inverted cell range");
  const JsonValue* keys = doc.get("keys");
  if (!keys || !keys->is_array())
    throw std::invalid_argument("shard manifest: missing keys");
  manifest.keys.reserve(keys->array.size());
  for (const JsonValue& k : keys->array) {
    if (!k.is_string())
      throw std::invalid_argument("shard manifest: non-string key");
    manifest.keys.push_back(k.str);
  }
  if (manifest.keys.size() != manifest.cell_hi - manifest.cell_lo)
    throw std::invalid_argument("shard manifest: key count mismatches range");
  const JsonValue* counts = doc.get("counters");
  if (!counts) throw std::invalid_argument("shard manifest: missing counters");
  manifest.counters = counters::from_json(*counts);
  // NOTE: duplicate *keys* are legal here — a multi-grid sweep may carry
  // the same (topology, engine, pattern, seed) cell under two labels.
  // Duplicate *coverage* (two manifests claiming one shard index, ranges
  // overlapping, cells past the plan) is merge_error's domain, where the
  // plan is in hand to judge against.
  return manifest;
}

ShardManifest run_shard(ExperimentHarness& harness, const GridPlan& plan,
                        unsigned shard, unsigned shards, ResultCache& cache) {
  const auto [lo, hi] = plan.shard_cells(shard, shards);
  ShardManifest manifest;
  manifest.fingerprint = plan.fingerprint();
  manifest.shard = shard;
  manifest.shards = shards;
  manifest.cell_lo = lo;
  manifest.cell_hi = hi;
  manifest.keys.reserve(hi - lo);
  for (std::size_t c = lo; c < hi; ++c)
    manifest.keys.push_back(plan.cell_key(c));

  const std::size_t hits_before = cache.hits();
  const std::size_t misses_before = cache.misses();
  const counters::Map counters_before = counters::snapshot();
  harness.run_cells(plan, lo, hi, &cache);
  manifest.hits = cache.hits() - hits_before;
  manifest.computed = cache.misses() - misses_before;
  manifest.counters = counters::delta(counters_before, counters::snapshot());
  return manifest;
}

std::string merge_error(const GridPlan& plan,
                        const std::vector<ShardManifest>& manifests) {
  if (manifests.empty()) return "no shard manifests";
  const unsigned shards = manifests.front().shards;
  if (manifests.size() != shards)
    return "expected " + std::to_string(shards) + " manifests, got " +
           std::to_string(manifests.size());
  std::vector<const ShardManifest*> by_index(shards, nullptr);
  for (const ShardManifest& m : manifests) {
    const std::string who = "shard " + std::to_string(m.shard);
    if (m.shards != shards) return who + ": inconsistent shard count";
    if (m.shard >= shards) return who + ": index out of range";
    if (by_index[m.shard]) return who + ": covered twice";
    by_index[m.shard] = &m;
    if (m.fingerprint != plan.fingerprint())
      return who + ": grid fingerprint mismatch (manifest " + m.fingerprint +
             ", plan " + plan.fingerprint() + ")";
  }
  // Partition-agnostic coverage: ordered by shard index, the ranges must
  // tile [0, total_cells()) exactly — any partition passes, while a gap,
  // an overlap, or a truncated shard cannot.
  std::uint64_t expect_lo = 0;
  for (unsigned i = 0; i < shards; ++i) {
    const ShardManifest& m = *by_index[i];
    if (m.cell_lo > m.cell_hi)
      return "shard " + std::to_string(i) + ": inverted cell range";
    if (m.cell_lo != expect_lo)
      return "shard " + std::to_string(i) + ": cell range starts at " +
             std::to_string(m.cell_lo) + ", want " +
             std::to_string(expect_lo) + " (gap or overlap)";
    expect_lo = m.cell_hi;
  }
  if (expect_lo != plan.total_cells())
    return "coverage ends at cell " + std::to_string(expect_lo) + ", want " +
           std::to_string(plan.total_cells());
  // Only now are the ranges known to lie inside the plan, so the per-cell
  // key comparison cannot index past the plan's cell space.
  for (const ShardManifest& m : manifests)
    for (std::size_t c = m.cell_lo; c < m.cell_hi; ++c)
      if (m.keys[c - m.cell_lo] != plan.cell_key(c))
        return "shard " + std::to_string(m.shard) + ": key mismatch at cell " +
               std::to_string(c);
  return "";
}

const char* outcome_name(ShardOutcome outcome) {
  switch (outcome) {
    case ShardOutcome::kPending: return "pending";
    case ShardOutcome::kExited: return "exited";
    case ShardOutcome::kSignaled: return "signaled";
    case ShardOutcome::kTimedOut: return "timed-out";
    case ShardOutcome::kSpawnFailed: return "spawn-failed";
    case ShardOutcome::kSkipped: return "skipped";
  }
  return "unknown";
}

ShardAttempt host_fault(std::string error) {
  ShardAttempt a;
  a.outcome = ShardOutcome::kSpawnFailed;
  a.error = std::move(error);
  a.host_fault = true;
  return a;
}

std::string history_names(const ShardRun& run) {
  std::string out;
  for (std::size_t i = 0; i < run.history.size(); ++i) {
    out += (i ? ", " : "");
    out += outcome_name(run.history[i]);
  }
  return out;
}

double retry_backoff_s(const RetryPolicy& policy, unsigned shard,
                       int attempt) {
  if (policy.backoff_base_s <= 0.0 || attempt < 1) return 0.0;
  Fnv1a hash;
  hash.update(policy.seed)
      .update(static_cast<std::uint64_t>(shard))
      .update(attempt);
  return jittered_backoff_s(policy.backoff_base_s, policy.backoff_max_s,
                            static_cast<unsigned>(attempt), hash.digest());
}

std::vector<HostSpec> parse_hosts(const std::string& text) {
  std::vector<HostSpec> hosts;
  for (const std::string& entry : split(text, ',')) {
    const auto bad = [&](const std::string& why) {
      throw std::invalid_argument("--hosts: bad entry '" + entry + "': " +
                                  why);
    };
    if (entry.empty()) bad("empty entry");
    HostSpec spec;
    std::size_t port_at = 0;
    if (entry.front() == '[') {  // bracketed IPv6 literal: [::1]:9000
      const std::size_t close = entry.find(']');
      if (close == std::string::npos) bad("unterminated '['");
      if (close + 1 >= entry.size() || entry[close + 1] != ':')
        bad("missing port");
      spec.host = entry.substr(1, close - 1);
      port_at = close + 2;
    } else {
      const std::size_t colon = entry.rfind(':');
      if (colon == std::string::npos) bad("missing port");
      spec.host = entry.substr(0, colon);
      port_at = colon + 1;
    }
    if (spec.host.empty()) bad("empty host");
    const std::string digits = entry.substr(port_at);
    if (digits.empty()) bad("missing port");
    char* end = nullptr;
    const long port = std::strtol(digits.c_str(), &end, 10);
    if (end != digits.c_str() + digits.size())
      bad("bad port '" + digits + "'");
    if (port < 1 || port > 65535) bad("port out of range");
    spec.port = static_cast<int>(port);
    hosts.push_back(std::move(spec));
  }
  return hosts;
}

double reconnect_backoff_s(const HostPolicy& policy, unsigned host,
                           unsigned fault) {
  if (policy.reconnect_base_s <= 0.0 || fault < 1) return 0.0;
  // Domain-separated by the tag so a host's reconnect waits never
  // correlate with shard retries.
  Fnv1a hash;
  hash.update(policy.seed)
      .update(std::string_view("reconnect"))
      .update(static_cast<std::uint64_t>(host))
      .update(static_cast<std::uint64_t>(fault));
  return jittered_backoff_s(policy.reconnect_base_s, policy.reconnect_max_s,
                            fault, hash.digest());
}

std::vector<ShardRun> run_shard_jobs_distributed(
    unsigned shards, unsigned local_workers, const RetryPolicy& policy,
    const ShardLauncher& local_launch, unsigned hosts,
    const RemoteLauncher& remote_launch, const HostProbe& probe,
    const HostPolicy& host_policy, std::vector<HostReport>* reports,
    const ShardProgress& progress, const std::vector<unsigned>& order) {
  std::vector<ShardRun> runs(shards);
  for (unsigned i = 0; i < shards; ++i) runs[i].shard = i;
  std::vector<HostReport> tallies(hosts);
  if (shards == 0) {
    if (reports) *reports = std::move(tallies);
    return runs;
  }
  if (hosts > 0 && !remote_launch)
    throw std::invalid_argument(
        "run_shard_jobs_distributed: hosts without a remote launcher");
  // The local pool is the degradation floor: even a hosts-only request
  // keeps one local slot, so a run whose every host is blacklisted still
  // completes.
  if (local_workers == 0) local_workers = 1;
  if (local_workers > shards) local_workers = shards;
  const unsigned max_attempts = std::max(1u, policy.max_attempts);
  if (!order.empty() && order.size() != shards)
    throw std::invalid_argument(
        "run_shard_jobs_distributed: order must list every shard");

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<unsigned> queue;
  // Shards leased to a worker or sleeping out a retry backoff: neither
  // queued nor terminal. The run is over only when the queue is empty AND
  // nothing is in flight — an in-flight shard can re-enter the queue (a
  // retry, or a host fault re-lease), so an empty queue alone proves
  // nothing. Workers therefore block on the condition variable instead of
  // exiting, which is what lets a shard abandoned by a dying host always
  // find a live worker.
  unsigned in_flight = 0;
  unsigned completed = 0;
  bool aborted = false;  // a permanent (exit 2) failure poisons the run
  if (order.empty())
    for (unsigned i = 0; i < shards; ++i) queue.push_back(i);
  else
    for (unsigned i : order) queue.push_back(i);

  // On abort, everything still waiting is marked skipped — retrying
  // cannot fix the config error that poisoned the run, so burning
  // attempts on it would only delay the report. Caller holds the lock.
  auto drain_locked = [&] {
    while (!queue.empty()) {
      ShardRun& run = runs[queue.front()];
      queue.pop_front();
      run.outcome = ShardOutcome::kSkipped;
      run.error = "skipped after a permanent shard failure";
      ++completed;
      if (progress) progress(run, completed, shards);
    }
  };

  // Blocks until a shard can be leased (true) or no work will ever
  // appear again (false).
  auto lease = [&](unsigned& shard, int& attempt) {
    std::unique_lock lock(mutex);
    cv.wait(lock,
            [&] { return aborted || !queue.empty() || in_flight == 0; });
    if (aborted) {
      drain_locked();
      cv.notify_all();
      return false;
    }
    if (queue.empty()) return false;  // nothing queued, nothing in flight
    shard = queue.front();
    queue.pop_front();
    attempt = runs[shard].attempts + 1;
    ++in_flight;
    return true;
  };

  // Records one resolved job attempt. Returns true when the shard should
  // be retried — the caller sleeps the backoff and then requeues;
  // in_flight stays held across that sleep so no worker exits while the
  // shard is off-queue.
  auto resolve = [&](unsigned shard, int attempt,
                     const ShardAttempt& result) {
    std::lock_guard lock(mutex);
    ShardRun& run = runs[shard];
    run.attempts = attempt;
    run.outcome = result.outcome;
    run.exit_code = result.exit_code;
    run.error = result.error;
    run.history.push_back(result.outcome);
    // Exit code 2 is the CLI's usage/config contract: deterministic,
    // so no retry can succeed — fail the whole run fast instead.
    const bool permanent =
        result.outcome == ShardOutcome::kExited && result.exit_code == 2;
    if (permanent) aborted = true;
    const bool retrying = !result.ok() && !permanent && !aborted &&
                          static_cast<unsigned>(attempt) < max_attempts;
    if (!retrying) {
      ++completed;  // success, exhausted, or permanent
      --in_flight;
    }
    // Progress fires under the lock so observers see a serialized,
    // monotonically completing sequence.
    if (progress) progress(run, completed, shards);
    cv.notify_all();
    return retrying;
  };

  // Puts an in-flight shard back on the queue. Host-fault re-leases go
  // to the front — the shard was already scheduled once and should reach
  // a healthy worker before fresh work; retries go to the back.
  auto requeue = [&](unsigned shard, bool front) {
    std::lock_guard lock(mutex);
    --in_flight;
    if (front)
      queue.push_front(shard);
    else
      queue.push_back(shard);
    cv.notify_all();
  };

  auto sleep_s = [](double s) {
    if (s > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };

  auto finished = [&] {
    std::lock_guard lock(mutex);
    return completed == shards;
  };

  auto local_worker = [&] {
    unsigned shard = 0;
    int attempt = 0;
    while (lease(shard, attempt)) {
      ShardAttempt result;
      try {
        result = local_launch(shard, attempt);
      } catch (const std::exception& e) {
        result.outcome = ShardOutcome::kSpawnFailed;
        result.exit_code = -1;
        result.error = e.what();
      }
      result.host_fault = false;  // the local path has no transport to blame
      if (resolve(shard, attempt, result)) {
        // Seeded exponential backoff between attempts; sleeping outside
        // the lock keeps the other workers scheduling. The shard re-joins
        // the queue only after the delay, so a crashing dependency gets
        // breathing room instead of a retry stampede.
        sleep_s(retry_backoff_s(policy, shard, attempt));
        requeue(shard, /*front=*/false);
      }
    }
  };

  // One dispatcher thread per host runs the health state machine:
  // probe until healthy -> lease -> (job outcome | host fault). A host
  // fault re-leases the shard without consuming its attempt, charges the
  // host's streak, and sends the host back to probing under reconnect
  // backoff; blacklist_after consecutive faults quarantine the host.
  auto host_worker = [&](unsigned h) {
    HostReport& tally = tallies[h];
    unsigned streak = 0;  // consecutive host faults
    bool healthy = false;
    // Charges one fault. Returns true when the host just crossed the
    // blacklist threshold (the thread must exit); otherwise sleeps the
    // jittered reconnect backoff and leaves the host unhealthy.
    auto fault = [&](const std::string& why) {
      ++tally.faults;
      ++streak;
      tally.last_error = why;
      healthy = false;
      if (streak >= std::max(1u, host_policy.blacklist_after)) {
        tally.blacklisted = true;
        return true;
      }
      sleep_s(reconnect_backoff_s(host_policy, h, streak));
      return false;
    };
    for (;;) {
      // A host that cannot even heartbeat must not lease work it would
      // only lose.
      while (!healthy) {
        if (finished()) return;
        bool up = false;
        std::string why = "probe failed";
        try {
          up = !probe || probe(h);
        } catch (const std::exception& e) {
          why += std::string(": ") + e.what();
        }
        if (up)
          healthy = true;
        else if (fault(why))
          return;
      }
      unsigned shard = 0;
      int attempt = 0;
      if (!lease(shard, attempt)) return;
      ++tally.dispatched;
      ShardAttempt result;
      try {
        result = remote_launch(h, shard, attempt);
      } catch (const std::exception& e) {
        result.outcome = ShardOutcome::kSpawnFailed;
        result.exit_code = -1;
        result.error = e.what();
        result.host_fault = true;  // the exchange, not the job, blew up
      }
      if (result.host_fault) {
        // Transport failure: the job may not even have started. Re-lease
        // the shard to the healthy workers without consuming one of its
        // attempts, and charge this host instead.
        requeue(shard, /*front=*/true);
        if (fault(result.error.empty() ? "host fault" : result.error))
          return;
        continue;
      }
      streak = 0;
      if (result.ok()) {
        ++tally.completed;
      } else {
        ++tally.job_failures;
        tally.last_error = result.error;
      }
      if (resolve(shard, attempt, result)) {
        sleep_s(retry_backoff_s(policy, shard, attempt));
        requeue(shard, /*front=*/false);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(local_workers + hosts);
  for (unsigned w = 0; w < local_workers; ++w)
    threads.emplace_back(local_worker);
  for (unsigned h = 0; h < hosts; ++h) threads.emplace_back(host_worker, h);
  for (std::thread& t : threads) t.join();
  if (reports) *reports = std::move(tallies);
  return runs;
}

}  // namespace hxmesh::engine
