#include "engine/shard.hpp"

#include <climits>
#include <stdexcept>

#include "core/json_parse.hpp"

namespace hxmesh::engine {

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
  // shard and shards are unsigned: a wider value must not wrap into range.
  auto u32 = [&](const char* key) {
    const std::uint64_t v = u64(key);
    if (v > UINT_MAX)
      throw std::invalid_argument(std::string("shard manifest: ") + key +
                                  " out of range");
    return static_cast<unsigned>(v);
  };

  ShardManifest manifest;
  const JsonValue* grid = doc.get("grid");
  if (!grid || !grid->is_string())
    throw std::invalid_argument("shard manifest: missing grid fingerprint");
  manifest.fingerprint = grid->str;
  manifest.shard = u32("shard");
  manifest.shards = u32("shards");
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

}  // namespace hxmesh::engine
