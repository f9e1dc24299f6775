// Distributed sweep fabric: the `hxmesh serve` daemon and the
// orchestrator-side client it speaks to.
//
// Protocol (version 3): length-prefixed frames (core/net) carrying JSON
// documents. Three request ops:
//
//   {"op":"ping"}      -> {"ok":true,"proto":3}
//   {"op":"shutdown"}  -> {"ok":true}            (daemon exits afterwards)
//   {"op":"job", "proto":3, "fingerprint":F, "grid":G, "shards":N,
//    "shard":I, "attempt":A, "timeout_s":T}
//     -> on a job that ran and succeeded:
//        {"ok":true,"status":"exited","exit_code":0,
//         "manifest":M, "blobs":[[key, entry-text], ...]}
//     -> on a job that ran and failed (shard-charged):
//        {"ok":false,"status":"exited|signaled|timed-out|spawn-failed",
//         "exit_code":E,"error":S}
//
// The daemon executes each job through run_shard_child, the same watched
// `hxmesh shard` launcher a local sweep uses (so kill/hang chaos and real
// crashes are classified exactly as locally), then streams back the coverage
// manifest plus the raw result-cache entry of every covered cell. The
// blobs carry their own FNV-1a checksums; the orchestrator admits them
// through ResultCache::adopt_blob, which rejects any blob corrupted in
// flight — a rejected blob is a *host fault* and the shard is re-leased,
// never replayed from the bad bytes.
//
// The daemon serves one connection at a time: one daemon is one worker
// slot, matching the dispatcher's one-thread-per-host model. List a
// machine several times (distinct daemons/ports) for more slots.
#pragma once

/// \file
/// \brief Distributed sweep fabric: `hxmesh serve` daemon loop and the
/// orchestrator-side ping/job client.

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "engine/result_cache.hpp"
#include "engine/shard.hpp"

namespace hxmesh::engine {

/// \brief Fabric protocol version; bumped when request/response fields
/// change meaning (2: the partition is always GridPlan::shard_cells, so
/// jobs no longer carry a partition flag; 3: the manifest a job returns
/// is schema 2 and carries the child's counters). A daemon answering a
/// mismatched version fails its probe and is never leased to.
constexpr int kFabricProto = 3;

/// \brief Knobs of the `hxmesh serve` daemon.
struct ServeOptions {
  std::string bind = "127.0.0.1";  ///< bind address (loopback by default)
  int port = 0;                    ///< 0 = ephemeral; printed on startup
  std::string cache_dir = ResultCache::kDefaultDir;
  int threads = 0;    ///< worker threads per job child (0 = its default)
  unsigned max_jobs = 0;  ///< exit after N jobs (0 = serve forever)
  /// When non-empty, the bound port is written here (atomically) once the
  /// listener is up — how scripts discover an ephemeral --port 0 choice
  /// without scraping stderr.
  std::string port_file;
};

/// \brief Runs the serve loop: accept, answer frames until the peer
/// hangs up, repeat. Returns 0 on a clean shutdown (op:"shutdown" or
/// max_jobs reached). Startup and per-job progress go to `err`, flushed,
/// so a harness can scrape "serve: listening on <addr>:<port>".
int serve_daemon(const ServeOptions& opt, std::ostream& err);

/// \brief One shard job to lease to a daemon.
struct FabricJob {
  std::string fingerprint;  ///< GridPlan fingerprint (names the handoff)
  std::string grids_json;   ///< canonical grids document (render_grids_json)
  unsigned shards = 1;
  unsigned shard = 0;
  int attempt = 1;          ///< forwarded so chaos schedules line up
  double timeout_s = 0.0;   ///< per-job watchdog on the daemon side
};

/// \brief What came back from one job lease.
struct FabricResult {
  /// Outcome as the dispatcher sees it. host_fault is set on any
  /// transport-layer problem (connect, timeout, torn frame, malformed
  /// response) — those charge the host, not the shard.
  ShardAttempt attempt;
  std::string manifest_json;  ///< coverage manifest text (on success)
  /// (cell key, raw cache-entry text) for every covered cell.
  std::vector<std::pair<std::string, std::string>> blobs;
};

/// \brief Heartbeat: connect and exchange a ping within `timeout_s`.
/// False on any failure (never throws) — the probe loop's currency.
bool fabric_ping(const HostSpec& host, double timeout_s);

/// \brief Leases `job` to `host` and waits up to `lease_timeout_s` for
/// the result frame. Never throws: transport failures come back as a
/// host-fault ShardAttempt (see FabricResult::attempt).
FabricResult fabric_run_job(const HostSpec& host,
                            const FabricJob& job, double lease_timeout_s);

}  // namespace hxmesh::engine
