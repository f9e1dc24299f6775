#include "engine/result_cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "core/counters.hpp"
#include "core/fsio.hpp"
#include "core/hash.hpp"
#include "core/json_parse.hpp"

namespace hxmesh::engine {

namespace {

// The checksum field is always the last one; the digest covers every byte
// before the marker.
constexpr const char* kChecksumMarker = ",\"checksum\":\"";

// Integrity of the store: corrupt entries moved to quarantine.
Counter g_quarantined("cache.quarantined");

// %.17g: enough digits that parsing the decimal form reproduces the exact
// double, which is what makes cached rows byte-identical on re-render.
std::string render_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string render_result(const RunResult& result) {
  std::string out = "{\"schema\":" + std::to_string(ResultCache::kSchemaVersion);
  out += ",\"flow_count\":" + std::to_string(result.flow_count);
  out += ",\"summary\":[";
  const Summary& s = result.rate_summary;
  out += std::to_string(s.n);
  for (double v : {s.mean, s.stddev, s.min, s.p01, s.p25, s.median, s.p75,
                   s.p99, s.max}) {
    out += ',';
    out += render_double(v);
  }
  out += "]";
  out += ",\"aggregate_fraction\":" + render_double(result.aggregate_fraction);
  out += ",\"completion_s\":" + render_double(result.completion_s);
  out += ",\"alpha_s\":" + render_double(result.alpha_s);
  out += ",\"fraction_of_peak\":" + render_double(result.fraction_of_peak);
  out += std::string(",\"numerics_ok\":") +
         (result.numerics_ok ? "true" : "false");
  // Content checksum over everything rendered so far. Verification
  // catches what JSON parsing cannot: a flipped digit in a summary is still
  // valid JSON, but it is not the result that was stored.
  out += std::string(kChecksumMarker) + Fnv1a().update(out).hex() + "\"}\n";
  return out;
}

// True when `text` ends in a checksum field whose digest matches the
// bytes before it.
bool checksum_valid(const std::string& text) {
  const std::size_t pos = text.rfind(kChecksumMarker);
  if (pos == std::string::npos) return false;
  const std::size_t digest_at = pos + std::string_view(kChecksumMarker).size();
  if (digest_at + 16 > text.size()) return false;
  return text.compare(digest_at, 16,
                      Fnv1a().update(text.substr(0, pos)).hex()) == 0;
}

// Throws (std::invalid_argument from the parser / field checks) on any
// malformed entry; load() quarantines it.
RunResult parse_result(const std::string& text) {
  const JsonValue doc = parse_json(text);
  const JsonValue* schema = doc.get("schema");
  if (!schema || schema->as_int() != ResultCache::kSchemaVersion)
    throw std::invalid_argument("result cache: schema mismatch");

  auto number = [&](const char* key) {
    const JsonValue* v = doc.get(key);
    if (!v || !v->is_number())
      throw std::invalid_argument(std::string("result cache: missing ") + key);
    return v->number;
  };

  RunResult result;
  const JsonValue* flow_count = doc.get("flow_count");
  if (!flow_count)
    throw std::invalid_argument("result cache: missing flow_count");
  result.flow_count = flow_count->as_u64();

  const JsonValue* summary = doc.get("summary");
  if (!summary || !summary->is_array() || summary->array.size() != 10)
    throw std::invalid_argument("result cache: bad summary");
  Summary& s = result.rate_summary;
  s.n = static_cast<std::size_t>(summary->array[0].as_u64());
  double* fields[] = {&s.mean, &s.stddev, &s.min,  &s.p01, &s.p25,
                      &s.median, &s.p75, &s.p99, &s.max};
  for (std::size_t i = 0; i < 9; ++i) {
    if (!summary->array[i + 1].is_number())
      throw std::invalid_argument("result cache: bad summary");
    *fields[i] = summary->array[i + 1].number;
  }

  result.aggregate_fraction = number("aggregate_fraction");
  result.completion_s = number("completion_s");
  result.alpha_s = number("alpha_s");
  result.fraction_of_peak = number("fraction_of_peak");
  const JsonValue* ok = doc.get("numerics_ok");
  if (!ok || !ok->is_bool())
    throw std::invalid_argument("result cache: missing numerics_ok");
  result.numerics_ok = ok->boolean;
  return result;
}

}  // namespace

std::unique_ptr<ResultCache> ResultCache::from_env() {
  if (const char* env = std::getenv("HXMESH_CACHE_DIR"); env && *env)
    return std::make_unique<ResultCache>(env);
  return nullptr;
}

std::string ResultCache::cell_key(const std::string& topology_spec,
                                  const std::string& engine_name,
                                  const flow::TrafficSpec& pattern,
                                  std::uint64_t seed) {
  flow::TrafficSpec keyed = pattern;
  keyed.seed = seed;
  Fnv1a hash;
  hash.update(topology_spec)
      .update(engine_name)
      .update(flow::pattern_spec(keyed))
      .update(seed)
      .update(kSchemaVersion);
  return hash.hex();
}

std::optional<RunResult> ResultCache::load(const std::string& key) {
  const std::optional<std::string> text = read_file(entry_path(key));
  if (!text) {
    misses_.fetch_add(1);
    return std::nullopt;
  }
  // The key hashes kSchemaVersion, so a file under it was written by this
  // schema's store(): one that fails its checksum or does not parse is
  // truncation, a bit flip, a torn write or a writer bug — evidence worth
  // keeping, never a stale entry of another version.
  if (checksum_valid(*text)) {
    try {
      RunResult result = parse_result(*text);
      hits_.fetch_add(1);
      return result;
    } catch (const std::exception&) {
      // Checksum-valid but malformed: quarantined like any corruption.
    }
  }
  quarantine_entry(key);
  misses_.fetch_add(1);
  return std::nullopt;
}

void ResultCache::quarantine_entry(const std::string& key) {
  if (rename_file(entry_path(key), quarantine_dir() + "/" + key + ".json")) {
    quarantined_.fetch_add(1);
    g_quarantined.add();
  }
}

void ResultCache::store(const std::string& key, const RunResult& result) const {
  write_file_atomic(entry_path(key), render_result(result));
}

std::optional<std::string> ResultCache::read_blob(const std::string& key) const {
  return read_file(entry_path(key));
}

ResultCache::Stats ResultCache::stats() const {
  Stats stats;
  for (const std::string& path : list_files(dir_)) {
    if (path.size() < 5 || path.compare(path.size() - 5, 5, ".json") != 0)
      continue;
    ++stats.entries;
    stats.bytes += file_size(path);
  }
  stats.quarantined = list_files(quarantine_dir()).size();
  return stats;
}

std::size_t ResultCache::clear() const {
  std::size_t removed = 0;
  for (const std::string& path : list_files(dir_)) {
    if (path.size() < 5 || path.compare(path.size() - 5, 5, ".json") != 0)
      continue;
    if (remove_file(path)) ++removed;
  }
  remove_tree(shard_meta_dir());
  remove_tree(quarantine_dir());
  return removed;
}

}  // namespace hxmesh::engine
