#include "engine/fabric.hpp"

#include <cstdio>
#include <ostream>

#include "core/fsio.hpp"
#include "core/json.hpp"
#include "core/json_parse.hpp"
#include "core/net.hpp"
#include "engine/sharded_sweep.hpp"

namespace hxmesh::engine {

namespace {

/// How long the orchestrator waits for a TCP connect (probe or lease).
/// Short on purpose: an unreachable daemon must fail fast so the
/// dispatcher's reconnect backoff sets the pace, not the TCP stack's.
constexpr double kConnectTimeoutS = 2.0;

/// Idle deadline between frames on an accepted connection. The client
/// opens one connection per exchange, so a peer that is silent this long
/// is gone (half-open) and the daemon moves on to the next accept.
constexpr double kServeIdleS = 10.0;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += JsonObject::escape(s);
  out += "\"";
  return out;
}

std::string error_response(const std::string& status, int exit_code,
                           const std::string& error) {
  return "{\"ok\":false,\"status\":" + quoted(status) +
         ",\"exit_code\":" + std::to_string(exit_code) +
         ",\"error\":" + quoted(error) + "}";
}

const char* require_string(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.get(key);
  if (!v || !v->is_string())
    throw std::invalid_argument(std::string("job: missing ") + key);
  return v->str.c_str();
}

std::uint64_t require_u64(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.get(key);
  if (!v || !v->is_number())
    throw std::invalid_argument(std::string("job: missing ") + key);
  return v->as_u64();
}

/// Runs one leased job through run_shard_child and renders the response
/// frame. Every outcome — including a missing manifest after a
/// "successful" child — is a response, not an exception: the job layer
/// must never tear the connection, because a torn frame reads as a host
/// fault while everything in here is the job's own fault.
std::string handle_job(const JsonValue& doc, const ServeOptions& opt,
                       std::ostream& err) {
  const JsonValue* proto = doc.get("proto");
  if (!proto || !proto->is_number() || proto->as_int() != kFabricProto)
    return error_response("spawn-failed", -1, "fabric protocol mismatch");

  ShardChildJob job;
  job.cache_dir = opt.cache_dir;
  job.fingerprint = require_string(doc, "fingerprint");
  const std::string grid = require_string(doc, "grid");
  job.shards = static_cast<unsigned>(require_u64(doc, "shards"));
  job.shard = static_cast<unsigned>(require_u64(doc, "shard"));
  job.attempt = static_cast<int>(require_u64(doc, "attempt"));
  job.threads = opt.threads;
  const JsonValue* timeout = doc.get("timeout_s");
  if (timeout && timeout->is_number() && timeout->number > 0.0)
    job.timeout_s = timeout->number;
  if (job.shards < 1 || job.shard >= job.shards)
    return error_response("spawn-failed", -1, "job: shard out of range");

  ResultCache cache(opt.cache_dir);
  ensure_dir(cache.shard_meta_dir());
  write_file_atomic(cache.shard_grid_path(job.fingerprint), grid);
  const ShardAttempt a = run_shard_child(job);

  err << "serve: shard " << job.shard << "/" << job.shards << " attempt "
      << job.attempt << " -> " << outcome_name(a.outcome);
  if (a.outcome == ShardOutcome::kExited)
    err << " (exit " << a.exit_code << ")";
  err << "\n";
  err.flush();
  if (!a.ok())
    return error_response(outcome_name(a.outcome), a.exit_code, a.error);

  // The child exited 0, so its manifest and every covered entry must
  // exist; a gap here is a broken store, reported as a job failure the
  // orchestrator will retry elsewhere.
  const std::optional<std::string> manifest_text = read_file(
      cache.shard_manifest_path(job.fingerprint, job.shard, job.shards));
  if (!manifest_text)
    return error_response("exited", 1, "manifest missing after shard run");
  ShardManifest manifest;
  try {
    manifest = parse_manifest(*manifest_text);
  } catch (const std::exception& e) {
    return error_response("exited", 1,
                          std::string("bad manifest after shard run: ") +
                              e.what());
  }

  std::string resp =
      "{\"ok\":true,\"proto\":" + std::to_string(kFabricProto) +
      ",\"status\":\"exited\",\"exit_code\":0,\"manifest\":" +
      quoted(*manifest_text) + ",\"blobs\":[";
  bool first = true;
  for (const std::string& key : manifest.keys) {
    const std::optional<std::string> blob = cache.read_blob(key);
    if (!blob)
      return error_response("exited", 1, "cache entry missing for " + key);
    resp += (first ? "" : ",");
    resp += "[" + quoted(key) + "," + quoted(*blob) + "]";
    first = false;
  }
  resp += "]}";
  return resp;
}

std::string handle_request(const std::string& text, const ServeOptions& opt,
                           std::ostream& err, unsigned* jobs_done,
                           bool* shutdown) {
  JsonValue doc;
  try {
    doc = parse_json(text);
  } catch (const std::exception&) {
    return error_response("spawn-failed", -1, "unparsable request");
  }
  const JsonValue* op = doc.is_object() ? doc.get("op") : nullptr;
  if (!op || !op->is_string())
    return error_response("spawn-failed", -1, "request without an op");
  if (op->str == "ping")
    return "{\"ok\":true,\"proto\":" + std::to_string(kFabricProto) + "}";
  if (op->str == "shutdown") {
    *shutdown = true;
    return "{\"ok\":true}";
  }
  if (op->str == "job") {
    std::string resp;
    try {
      resp = handle_job(doc, opt, err);
    } catch (const std::exception& e) {
      resp = error_response("spawn-failed", -1, e.what());
    }
    ++*jobs_done;
    return resp;
  }
  return error_response("spawn-failed", -1, "unknown op '" + op->str + "'");
}

bool parse_outcome(const std::string& status, ShardOutcome* out) {
  if (status == "exited") *out = ShardOutcome::kExited;
  else if (status == "signaled") *out = ShardOutcome::kSignaled;
  else if (status == "timed-out") *out = ShardOutcome::kTimedOut;
  else if (status == "spawn-failed") *out = ShardOutcome::kSpawnFailed;
  else return false;
  return true;
}

std::string render_job(const FabricJob& job) {
  std::string out = "{\"op\":\"job\",\"proto\":" +
                    std::to_string(kFabricProto) +
                    ",\"fingerprint\":" + quoted(job.fingerprint) +
                    ",\"grid\":" + quoted(job.grids_json) +
                    ",\"shards\":" + std::to_string(job.shards) +
                    ",\"shard\":" + std::to_string(job.shard) +
                    ",\"attempt\":" + std::to_string(job.attempt);
  if (job.timeout_s > 0.0) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", job.timeout_s);
    out += std::string(",\"timeout_s\":") + buf;
  }
  return out + "}";
}

}  // namespace

int serve_daemon(const ServeOptions& opt, std::ostream& err) {
  TcpListener listener(opt.bind, opt.port);
  err << "serve: listening on " << opt.bind << ":" << listener.port()
      << " (cache " << opt.cache_dir << ")\n";
  err.flush();
  if (!opt.port_file.empty())
    write_file_atomic(opt.port_file, std::to_string(listener.port()) + "\n");

  unsigned jobs_done = 0;
  bool shutdown = false;
  while (!shutdown && (opt.max_jobs == 0 || jobs_done < opt.max_jobs)) {
    Socket conn = listener.accept(1.0);
    if (!conn.valid()) continue;  // accept timeout: re-check stop conditions
    for (;;) {
      std::optional<std::string> request;
      try {
        request = recv_frame(conn, kServeIdleS);
      } catch (const NetError&) {
        break;  // torn frame or idle peer: drop the connection, not the loop
      }
      if (!request) break;  // clean EOF between frames
      const std::string response =
          handle_request(*request, opt, err, &jobs_done, &shutdown);
      try {
        send_frame(conn, response);
      } catch (const NetError&) {
        break;  // peer vanished mid-response; its lease deadline handles it
      }
      if (shutdown || (opt.max_jobs && jobs_done >= opt.max_jobs)) break;
    }
  }
  err << "serve: exiting after " << jobs_done << " job(s)\n";
  err.flush();
  return 0;
}

bool fabric_ping(const HostSpec& host, double timeout_s) {
  try {
    Socket sock = tcp_connect(host.host, host.port, timeout_s);
    send_frame(sock, "{\"op\":\"ping\"}");
    const std::optional<std::string> resp = recv_frame(sock, timeout_s);
    if (!resp) return false;
    const JsonValue doc = parse_json(*resp);
    const JsonValue* ok = doc.is_object() ? doc.get("ok") : nullptr;
    const JsonValue* proto = doc.is_object() ? doc.get("proto") : nullptr;
    return ok && ok->is_bool() && ok->boolean && proto &&
           proto->is_number() && proto->as_int() == kFabricProto;
  } catch (const std::exception&) {
    return false;
  }
}

FabricResult fabric_run_job(const HostSpec& host,
                            const FabricJob& job, double lease_timeout_s) {
  FabricResult result;
  std::optional<std::string> resp;
  try {
    Socket sock = tcp_connect(host.host, host.port, kConnectTimeoutS);
    send_frame(sock, render_job(job));
    resp = recv_frame(sock, lease_timeout_s);
  } catch (const NetError& e) {
    result.attempt = host_fault(e.what());
    return result;
  }
  if (!resp) {
    result.attempt = host_fault("daemon closed the connection mid-lease");
    return result;
  }
  try {
    const JsonValue doc = parse_json(*resp);
    const JsonValue* ok = doc.is_object() ? doc.get("ok") : nullptr;
    const JsonValue* status = doc.is_object() ? doc.get("status") : nullptr;
    if (!ok || !ok->is_bool() || !status || !status->is_string())
      throw std::invalid_argument("response without ok/status");
    ShardOutcome outcome;
    if (!parse_outcome(status->str, &outcome))
      throw std::invalid_argument("unknown status '" + status->str + "'");
    result.attempt.outcome = outcome;
    result.attempt.host_fault = false;
    const JsonValue* exit_code = doc.get("exit_code");
    result.attempt.exit_code =
        exit_code && exit_code->is_number() ? exit_code->as_int() : -1;
    if (!ok->boolean) {
      const JsonValue* error = doc.get("error");
      result.attempt.error =
          error && error->is_string() ? error->str : "remote job failed";
      return result;
    }
    const JsonValue* manifest = doc.get("manifest");
    const JsonValue* blobs = doc.get("blobs");
    if (!manifest || !manifest->is_string() || !blobs || !blobs->is_array())
      throw std::invalid_argument("success response without manifest/blobs");
    result.manifest_json = manifest->str;
    result.blobs.reserve(blobs->array.size());
    for (const JsonValue& pair : blobs->array) {
      if (!pair.is_array() || pair.array.size() != 2 ||
          !pair.array[0].is_string() || !pair.array[1].is_string())
        throw std::invalid_argument("malformed blob entry");
      result.blobs.emplace_back(pair.array[0].str, pair.array[1].str);
    }
  } catch (const std::exception& e) {
    // A frame that arrived but cannot be trusted is a transport problem:
    // charge the host and re-lease the shard from scratch.
    result = FabricResult{};
    result.attempt = host_fault(std::string("malformed response: ") +
                                e.what());
  }
  return result;
}

}  // namespace hxmesh::engine
