// ResultCache: cell-key properties (every axis changes the key, equal
// specs share one), hit/miss round trips that reproduce byte-identical
// harness rows, corrupt-entry fallback, and the cached run_grid path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/counters.hpp"
#include "core/fsio.hpp"
#include "core/hash.hpp"
#include "engine/harness.hpp"
#include "engine/result_cache.hpp"

namespace hxmesh {
namespace {

using engine::ResultCache;

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

flow::TrafficSpec alltoall_spec() {
  flow::TrafficSpec spec;
  spec.kind = flow::PatternKind::kAlltoall;
  spec.message_bytes = 256 * KiB;
  return spec;
}

TEST(ResultCacheKey, ChangesOnEveryAxis) {
  const flow::TrafficSpec pattern = alltoall_spec();
  const std::string base =
      ResultCache::cell_key("hx2mesh:4x4", "flow", pattern, 1);
  EXPECT_EQ(base.size(), 16u);

  EXPECT_NE(ResultCache::cell_key("hx2mesh:8x8", "flow", pattern, 1), base);
  EXPECT_NE(ResultCache::cell_key("hx2mesh:4x4", "packet", pattern, 1), base);
  EXPECT_NE(ResultCache::cell_key("hx2mesh:4x4", "flow", pattern, 2), base);

  flow::TrafficSpec other = pattern;
  other.message_bytes = 512 * KiB;
  EXPECT_NE(ResultCache::cell_key("hx2mesh:4x4", "flow", other, 1), base);
  other = pattern;
  other.samples = 4;
  EXPECT_NE(ResultCache::cell_key("hx2mesh:4x4", "flow", other, 1), base);
  other = pattern;
  other.kind = flow::PatternKind::kAllreduce;
  EXPECT_NE(ResultCache::cell_key("hx2mesh:4x4", "flow", other, 1), base);
}

TEST(ResultCacheKey, EqualScenariosShareAKey) {
  // The pattern's own seed is irrelevant: the row seed is applied first,
  // exactly as run_grid does.
  flow::TrafficSpec a = alltoall_spec();
  flow::TrafficSpec b = alltoall_spec();
  a.seed = 123;
  b.seed = 456;
  EXPECT_EQ(ResultCache::cell_key("hx2mesh:4x4", "flow", a, 7),
            ResultCache::cell_key("hx2mesh:4x4", "flow", b, 7));
  // Spelled differently, parsed equal.
  EXPECT_EQ(ResultCache::cell_key("hx2mesh:4x4", "flow",
                                  flow::parse_traffic("alltoall:samples=16"),
                                  1),
            ResultCache::cell_key("hx2mesh:4x4", "flow",
                                  flow::parse_traffic("alltoall"), 1));
}

TEST(ResultCache, MissThenHitRoundTripsExactRows) {
  const std::string dir = fresh_dir("cache_roundtrip");
  engine::SweepConfig sweep;
  sweep.topologies = {"hx2mesh:4x4", "torus:8x8"};
  sweep.engines = {"flow", "packet"};
  sweep.patterns = {flow::parse_traffic("perm:msg=256KiB"),
                    flow::parse_traffic("shift:3:msg=64KiB")};
  sweep.seeds = {1, 2};

  engine::ExperimentHarness harness(2);
  auto uncached = harness.run_grid(sweep);

  ResultCache cold(dir);
  auto first = harness.run_grid(sweep, {}, &cold);
  EXPECT_EQ(cold.hits(), 0u);
  EXPECT_EQ(cold.misses(), first.size());

  ResultCache warm(dir);
  auto second = harness.run_grid(sweep, {}, &warm);
  EXPECT_EQ(warm.hits(), second.size());
  EXPECT_EQ(warm.misses(), 0u);

  ASSERT_EQ(first.size(), uncached.size());
  ASSERT_EQ(second.size(), uncached.size());
  for (std::size_t i = 0; i < uncached.size(); ++i) {
    // Byte-identical rows whether computed, stored, or reloaded.
    EXPECT_EQ(engine::row_json(first[i]), engine::row_json(uncached[i])) << i;
    EXPECT_EQ(engine::row_json(second[i]), engine::row_json(uncached[i])) << i;
    // The reloaded result also reproduces the fields the row does not
    // print (the summary's spread and tail quantiles, which fig12 reads),
    // bit for bit.
    const auto bits = [](const engine::RunResult& r) {
      const Summary& s = r.rate_summary;
      std::vector<std::uint64_t> out = {r.flow_count, s.n, r.numerics_ok};
      for (double v : {s.mean, s.stddev, s.min, s.p01, s.p25, s.median, s.p75,
                       s.p99, s.max, r.aggregate_fraction, r.completion_s,
                       r.alpha_s, r.fraction_of_peak})
        out.push_back(std::bit_cast<std::uint64_t>(v));
      return out;
    };
    EXPECT_EQ(bits(second[i].result), bits(uncached[i].result)) << i;
  }
}

TEST(ResultCache, EntrySizeDoesNotGrowWithFlowCount) {
  // An entry is the cell's summary, so a 1,024-flow permutation stores as
  // few bytes as a 16-flow one.
  const std::string dir = fresh_dir("cache_entry_size");
  engine::SweepConfig sweep;
  sweep.topologies = {"hx2mesh:2x2", "hx2mesh:16x16"};
  sweep.patterns = {flow::parse_traffic("perm:msg=256KiB")};
  engine::ExperimentHarness harness(2);
  ResultCache cache(dir);
  const auto rows = harness.run_grid(sweep, {}, &cache);
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[1].result.flow_count, 1024u);

  std::vector<std::uint64_t> sizes;
  for (const engine::SweepRow& row : rows) {
    const auto blob = cache.read_blob(
        ResultCache::cell_key(row.topology, row.engine, row.pattern, row.seed));
    ASSERT_TRUE(blob.has_value()) << row.topology;
    EXPECT_LT(blob->size(), 1024u) << row.topology;
    sizes.push_back(blob->size());
  }
  const auto [small, large] = std::minmax(sizes[0], sizes[1]);
  EXPECT_LT(large - small, 64u);
}

TEST(ResultCache, CorruptEntryFallsBackToRecompute) {
  const std::string dir = fresh_dir("cache_corrupt");
  engine::SweepConfig sweep;
  sweep.topologies = {"hx2mesh:2x2"};
  sweep.patterns = {flow::parse_traffic("shift:1:msg=64KiB")};

  engine::ExperimentHarness harness(1);
  ResultCache cold(dir);
  auto rows = harness.run_grid(sweep, {}, &cold);
  ASSERT_EQ(rows.size(), 1u);

  // Garbage every entry on disk — alternating between a truncated
  // document (invalid_argument from the parser) and a syntactically valid
  // one whose integer overflows as_int (out_of_range); both must read as
  // misses.
  auto entries = list_files(dir);
  ASSERT_FALSE(entries.empty());
  bool truncate = true;
  for (const std::string& path : entries) {
    write_file_atomic(path, truncate ? "{\"schema\":1,\"flo"
                                     : "{\"schema\":99999999999999999999}");
    truncate = !truncate;
  }

  ResultCache corrupted(dir);
  auto recomputed = harness.run_grid(sweep, {}, &corrupted);
  EXPECT_EQ(corrupted.hits(), 0u);  // corrupt counts as a miss
  EXPECT_EQ(corrupted.misses(), 1u);
  EXPECT_EQ(engine::row_json(recomputed[0]), engine::row_json(rows[0]));

  // And the recompute healed the entry in place.
  ResultCache healed(dir);
  auto again = harness.run_grid(sweep, {}, &healed);
  EXPECT_EQ(healed.hits(), 1u);
  EXPECT_EQ(engine::row_json(again[0]), engine::row_json(rows[0]));
}

TEST(ResultCache, ForeignSchemaUnderACurrentKeyIsQuarantined) {
  namespace fs = std::filesystem;
  const std::string dir = fresh_dir("cache_schema");
  ResultCache cache(dir);
  engine::RunResult result;
  result.completion_s = 1.5;
  const std::string key = ResultCache::cell_key(
      "hx2mesh:2x2", "flow", flow::parse_traffic("shift:1"), 1);
  cache.store(key, result);
  ASSERT_TRUE(cache.load(key).has_value());

  // Rewrite the entry claiming a different schema version. The key hashes
  // kSchemaVersion, so no honest writer puts such a file under it: it is
  // corrupt, not stale, whether or not its checksum was redone to match.
  const std::string path = dir + "/" + key + ".json";
  auto text = read_file(path);
  ASSERT_TRUE(text.has_value());
  const std::string marker =
      "\"schema\":" + std::to_string(ResultCache::kSchemaVersion);
  const auto pos = text->find(marker);
  ASSERT_NE(pos, std::string::npos);
  text->replace(pos, marker.size(), "\"schema\":999");
  write_file_atomic(path, *text);
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.quarantined(), 1u);
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(path));

  // The same foreign document with a valid checksum over its own bytes.
  const std::string checksum = ",\"checksum\":\"";
  const std::string body = text->substr(0, text->rfind(checksum));
  write_file_atomic(
      path, body + checksum + Fnv1a().update(body).hex() + "\"}\n");
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.quarantined(), 2u);
  EXPECT_FALSE(fs::exists(path));
}

TEST(ResultCache, HitsNeverWriteTheStore) {
  namespace fs = std::filesystem;
  const std::string dir = fresh_dir("cache_read_only_hits");
  ResultCache cache(dir);
  engine::RunResult result;
  result.completion_s = 2.5;
  cache.store("abcd", result);

  // A load is a read: the entry's mtime is exactly what store() left.
  const std::string path = dir + "/abcd.json";
  const auto backdated =
      fs::file_time_type::clock::now() - std::chrono::hours(240);
  fs::last_write_time(path, backdated);
  const auto hit = cache.load("abcd");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->completion_s, 2.5);
  EXPECT_EQ(fs::last_write_time(path), backdated);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ResultCache, TamperedEntryIsQuarantinedAndHealedByRecompute) {
  namespace fs = std::filesystem;
  const std::string dir = fresh_dir("cache_quarantine");
  ResultCache cache(dir);
  engine::RunResult result;
  result.flow_count = 1;
  result.rate_summary = summarize({2.5});
  result.completion_s = 1.25;
  const std::string key = ResultCache::cell_key(
      "hx2mesh:2x2", "flow", flow::parse_traffic("shift:1"), 1);
  cache.store(key, result);

  // Entries carry a trailing checksum and every hit verifies it.
  const std::string path = dir + "/" + key + ".json";
  auto text = read_file(path);
  ASSERT_TRUE(text.has_value());
  EXPECT_NE(text->find("\"checksum\":\""), std::string::npos);
  ASSERT_TRUE(cache.load(key).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.quarantined(), 0u);

  // Flip one digit of the stored mean rate: still perfectly valid JSON of
  // the current schema — only the checksum can tell it is not the result
  // that was stored.
  const std::string mean = "\"summary\":[1,2.5,";
  const auto pos = text->find(mean);
  ASSERT_NE(pos, std::string::npos);
  std::string tampered = *text;
  tampered[pos + mean.size() - 4] = '3';  // 2.5 -> 3.5
  write_file_atomic(path, tampered);

  EXPECT_FALSE(cache.load(key).has_value());  // miss, never a wrong hit
  EXPECT_EQ(cache.quarantined(), 1u);
  EXPECT_FALSE(fs::exists(path));  // evidence moved, not overwritten...
  EXPECT_TRUE(fs::exists(cache.quarantine_dir() + "/" + key + ".json"));
  EXPECT_EQ(cache.stats().quarantined, 1u);

  // ...and the recompute heals the live entry as usual.
  cache.store(key, result);
  const auto healed = cache.load(key);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->rate_summary.mean, 2.5);
  EXPECT_EQ(cache.hits(), 2u);

  // clear() reclaims the quarantined blobs along with the entries.
  EXPECT_EQ(cache.clear(), 1u);
  EXPECT_FALSE(fs::exists(cache.quarantine_dir()));
  EXPECT_EQ(cache.stats().quarantined, 0u);
}

TEST(ResultCache, TruncatedEntryIsQuarantined) {
  namespace fs = std::filesystem;
  const std::string dir = fresh_dir("cache_truncated");
  ResultCache cache(dir);
  engine::RunResult result;
  cache.store("abcd", result);

  // A torn write: the checksum field never made it to disk.
  auto text = read_file(dir + "/abcd.json");
  ASSERT_TRUE(text.has_value());
  write_file_atomic(dir + "/abcd.json", text->substr(0, text->size() / 2));

  EXPECT_FALSE(cache.load("abcd").has_value());
  EXPECT_EQ(cache.quarantined(), 1u);
  EXPECT_TRUE(fs::exists(cache.quarantine_dir() + "/abcd.json"));
}

TEST(ResultCache, NonNumericSummaryValueIsAMiss) {
  const std::string dir = fresh_dir("cache_bad_rate");
  ResultCache cache(dir);
  engine::RunResult result;
  result.flow_count = 1;
  result.rate_summary = summarize({2.5});
  const std::string key = ResultCache::cell_key(
      "hx2mesh:2x2", "flow", flow::parse_traffic("shift:1"), 1);
  cache.store(key, result);
  ASSERT_TRUE(cache.load(key).has_value());

  const std::string path = dir + "/" + key + ".json";
  auto text = read_file(path);
  ASSERT_TRUE(text.has_value());
  const std::string marker = "\"summary\":[1,2.5,";
  const auto pos = text->find(marker);
  ASSERT_NE(pos, std::string::npos);
  text->replace(pos, marker.size(), "\"summary\":[1,null,");
  write_file_atomic(path, *text);
  EXPECT_FALSE(cache.load(key).has_value());  // not a silent 0.0 rate
}

TEST(ResultCache, StatsAndClear) {
  const std::string dir = fresh_dir("cache_stats");
  ResultCache cache(dir);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.clear(), 0u);  // clearing a missing dir is fine

  engine::RunResult result;
  cache.store("aaaa", result);
  cache.store("bbbb", result);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(cache.clear(), 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, ClearReclaimsShardMetadata) {
  namespace fs = std::filesystem;
  const std::string dir = fresh_dir("cache_shard_meta");
  ResultCache cache(dir);
  engine::RunResult result;
  cache.store("aaaa", result);

  // Simulate a sharded sweep's leftovers: a grid handoff + a manifest.
  ensure_dir(cache.shard_meta_dir());
  write_file_atomic(cache.shard_meta_dir() + "/fp.grid.json", "{}");
  write_file_atomic(cache.shard_meta_dir() + "/fp.0-of-2.json", "{}");

  // clear() reclaims the whole metadata tree alongside the entries.
  EXPECT_EQ(cache.clear(), 1u);
  EXPECT_FALSE(fs::exists(cache.shard_meta_dir()));
}

TEST(ResultCache, ReadBlobReturnsTheStoredBytes) {
  // read_blob() hands back exactly the bytes store() wrote, and those
  // bytes load() back to the stored result.
  const std::string dir = fresh_dir("cache_read_blob");
  ResultCache cache(dir);
  engine::RunResult result;
  result.completion_s = 123.456;
  cache.store("feedfacefeedface", result);

  const auto blob = cache.read_blob("feedfacefeedface");
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(blob, read_file(dir + "/feedfacefeedface.json"));
  EXPECT_EQ(cache.read_blob("0000000000000000"), std::nullopt);

  const auto loaded = cache.load("feedfacefeedface");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->completion_s, result.completion_s);
}

}  // namespace
}  // namespace hxmesh
