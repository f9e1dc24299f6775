#include "cli/cli.hpp"

#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "core/counters.hpp"
#include "core/fsio.hpp"
#include "core/parse_num.hpp"
#include "core/json_parse.hpp"
#include "core/stats.hpp"
#include "engine/harness.hpp"
#include "engine/shard.hpp"
#include "engine/sharded_sweep.hpp"
#include "flow/patterns.hpp"

namespace hxmesh::cli {

namespace {

const char* kUsage = R"(hxmesh — HammingMesh simulation front-end

usage: hxmesh <subcommand> [options]

subcommands:
  run    --topo SPEC --pattern SPEC [--engine NAME] [--seed N]
         run one grid cell; prints its JSON row
  sweep  (--topo SPEC)+ (--pattern SPEC)+ [(--engine NAME)+] [(--seed N)+]
         [--label L]* [--config FILE.json] [--json PATH]
         [--shards N] [--workers K] [--shard-timeout SEC]
         run the full topology x engine x pattern x seed grid
         (no --seed: each pattern's own seed= applies, default 1).
         With --shards: split the grid into N contiguous blocks of
         near-equal estimated cost (packet cells weigh more than flow)
         and run one 'hxmesh shard' worker per non-empty block,
         heaviest first, over K process slots, reporting each shard on
         stderr as it ends; the result cache then merges them into the
         byte-identical single-process row order. A failed shard fails
         the sweep; re-running it recomputes only the cells the cache
         lacks. --shard-timeout arms a watchdog: a shard past its
         deadline gets SIGTERM, then SIGKILL after a grace period, and
         reports 'timed-out'.
  shard  --shards N --shard I [grid flags as for sweep]
         run one cost-balanced block of the grid: simulate its cells,
         store them as result-cache entries, and write a coverage
         manifest next to the cache
  ls     [engines|topologies|patterns]
         list engines, topology families, pattern grammar
  cache  stats|clear [--cache-dir DIR]
         inspect or empty the result cache (stats reports the store:
         entries, bytes, quarantined blobs; clear is the one way to
         reclaim space — nothing evicts entries)

common options:
  --json PATH       write rows as a JSON array to PATH ('-' = stdout)
  --cache-dir DIR   result cache location (default .hxmesh-cache)
  --no-cache        bypass the result cache entirely
  --threads N       worker threads (default: $HXMESH_THREADS, else hardware)
  --config FILE     sweep axes from a JSON object with keys "topologies",
                    "engines", "patterns", "seeds", "labels" (flags append),
                    or several grids at once as {"grids": [{...}, {...}]}

examples:
  hxmesh run --topo hx2mesh:8x8 --pattern alltoall:msg=1MiB
  hxmesh sweep --topo hx2mesh:8x8 --topo torus:16x16 \
               --pattern perm:msg=256KiB --seed 1 --seed 2 --json rows.json
  hxmesh sweep --config bench/baselines/regression_grid.json \
               --shards 4 --workers 2 --json rows.json
)";

[[noreturn]] void usage_error(const std::string& why) {
  throw std::invalid_argument(why + " (see 'hxmesh --help')");
}

std::string need_value(const std::vector<std::string>& args, std::size_t& i) {
  if (i + 1 >= args.size()) usage_error("flag " + args[i] + " needs a value");
  return args[++i];
}

std::uint64_t parse_u64(const std::string& flag, const std::string& token) {
  const std::optional<std::uint64_t> v = parse_u64_strict(token);
  if (!v) usage_error(flag + ": bad number '" + token + "'");
  return *v;
}

/// Bounded flag value: rejects anything a later narrowing cast would
/// silently wrap (e.g. --shards 4294967296 becoming 0 shards).
std::uint64_t parse_bounded(const std::string& flag, const std::string& token,
                            std::uint64_t max) {
  const std::uint64_t v = parse_u64(flag, token);
  if (v > max)
    usage_error(flag + ": " + token + " is out of range (max " +
                std::to_string(max) + ")");
  return v;
}

/// Non-negative seconds value (fractions allowed: "0.25").
double parse_seconds(const std::string& flag, const std::string& token) {
  char* end = nullptr;
  const double v = token.empty() ? -1.0 : std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size() ||
      !(v >= 0.0 && v <= 1e9))
    usage_error(flag + ": bad duration '" + token + "' (seconds, >= 0)");
  return v;
}

struct SweepOptions {
  engine::SweepConfig config;       // axes accumulated from flags
  std::vector<std::string> labels;  // labels accumulated from flags
  std::vector<engine::GridSpec> config_grids;  // a "grids" config file
  std::string json_path;  // empty or "-": stdout
  std::string cache_dir = engine::ResultCache::kDefaultDir;
  bool no_cache = false;
  int threads = 0;
  // sweep --shards and its flags; `shards` is also the shard subcommand's N.
  engine::ShardedSweepOptions sharding;
  int shard_index = -1;  // shard subcommand only
};

// Reads one string-array member of a config object into `out` (appending).
void read_string_array(const JsonValue& doc, const std::string& key,
                       std::vector<std::string>* out) {
  const JsonValue* v = doc.get(key);
  if (!v) return;
  if (!v->is_array()) usage_error("config: \"" + key + "\" must be an array");
  for (const JsonValue& item : v->array) {
    if (!item.is_string())
      usage_error("config: \"" + key + "\" must contain strings");
    out->push_back(item.str);
  }
}

// Reads the flat axis keys of one config object into config/labels.
void read_axes(const JsonValue& doc, engine::SweepConfig* config,
               std::vector<std::string>* labels) {
  read_string_array(doc, "topologies", &config->topologies);
  read_string_array(doc, "labels", labels);
  std::vector<std::string> engines, patterns;
  read_string_array(doc, "engines", &engines);
  read_string_array(doc, "patterns", &patterns);
  for (const std::string& e : engines) config->engines.push_back(e);
  for (const std::string& p : patterns)
    config->patterns.push_back(flow::parse_traffic(p));
  if (const JsonValue* seeds = doc.get("seeds")) {
    if (!seeds->is_array()) usage_error("config: \"seeds\" must be an array");
    for (const JsonValue& s : seeds->array)
      config->seeds.push_back(s.as_u64());
  }
}

void merge_config_file(const std::string& path, SweepOptions* opt) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw std::runtime_error("cannot read config file " + path);
  const JsonValue doc = parse_json(*text);
  if (!doc.is_object()) usage_error("config: " + path + " is not an object");
  if (const JsonValue* grids = doc.get("grids")) {
    if (!grids->is_array() || grids->array.empty())
      usage_error("config: \"grids\" must be a non-empty array");
    for (const JsonValue& grid : grids->array) {
      if (!grid.is_object())
        usage_error("config: \"grids\" must contain objects");
      engine::GridSpec spec;
      spec.config.engines.clear();
      spec.config.seeds.clear();
      read_axes(grid, &spec.config, &spec.labels);
      opt->config_grids.push_back(std::move(spec));
    }
    return;
  }
  read_axes(doc, &opt->config, &opt->labels);
}

/// The grids a sweep/shard invocation describes: either the "grids" array
/// of its config file, or the single grid accumulated from flags (and a
/// flat config file). Validates and applies the engine default.
std::vector<engine::GridSpec> final_grids(const SweepOptions& opt) {
  std::vector<engine::GridSpec> grids;
  if (!opt.config_grids.empty()) {
    if (!opt.config.topologies.empty() || !opt.config.patterns.empty() ||
        !opt.config.engines.empty() || !opt.config.seeds.empty() ||
        !opt.labels.empty())
      usage_error("a config with \"grids\" cannot be combined with axis flags");
    grids = opt.config_grids;
  } else {
    grids.push_back({opt.config, opt.labels});
  }
  for (engine::GridSpec& grid : grids) {
    if (grid.config.topologies.empty())
      usage_error("need at least one --topo (or a --config file)");
    if (grid.config.patterns.empty())
      usage_error("need at least one --pattern (or a --config file)");
    if (grid.config.engines.empty()) grid.config.engines = {"flow"};
    // An empty seed axis stays empty: each pattern's embedded seed applies.
  }
  return grids;
}

void emit_rows(const std::vector<engine::SweepRow>& rows,
               const std::string& json_path, std::ostream& out,
               std::ostream& err) {
  if (json_path.empty() || json_path == "-") {
    engine::write_json(out, rows);
    return;
  }
  engine::write_json(json_path, rows);
  err << "wrote " << rows.size() << " rows to " << json_path << "\n";
}

// The cache's hit rate, then every registered counter's growth since
// `before`: this command's work, with a sharded sweep's children folded in.
void report(const std::optional<engine::ResultCache>& cache,
            const counters::Map& before, std::ostream& err) {
  if (cache) {
    const std::size_t hits = cache->hits();
    const std::size_t total = hits + cache->misses();
    const double pct =
        total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) / total;
    err << "cache: " << hits << " hits, " << cache->misses() << " misses ("
        << fmt(pct, 1) << "% hit rate) in " << cache->dir() << "\n";
  }
  const counters::Map now = counters::snapshot();
  err << "counters:";
  for (const auto& [name, value] : counters::delta(before, now))
    err << ' ' << name << '=' << value;
  err << "\n";
}

int do_sweep(SweepOptions opt, std::ostream& out, std::ostream& err) {
  const counters::Map before = counters::snapshot();
  engine::ShardedSweepOptions& sharding = opt.sharding;
  if (sharding.shards == 0 && sharding.shard_timeout_s > 0)
    usage_error("sweep: --shard-timeout needs --shards");
  const auto grids = final_grids(opt);

  std::optional<engine::ResultCache> cache;
  if (!opt.no_cache) cache.emplace(opt.cache_dir);
  std::vector<engine::SweepRow> rows;
  if (sharding.shards > 0) {
    if (!cache)
      usage_error("sweep: --shards needs the result cache (drop --no-cache)");
    sharding.threads = opt.threads;
    rows = engine::run_sharded_sweep(grids, sharding, *cache, err);
  } else {
    engine::ExperimentHarness harness(opt.threads);
    rows = harness.run_grids(grids, cache ? &*cache : nullptr);
  }
  emit_rows(rows, opt.json_path, out, err);
  report(cache, before, err);
  return 0;
}

int do_shard(SweepOptions opt, std::ostream& out, std::ostream& err) {
  (void)out;  // a shard's data output is the cache, not stdout
  const engine::ShardedSweepOptions& sharding = opt.sharding;
  if (sharding.shards == 0) usage_error("shard: need --shards N (N >= 1)");
  if (opt.shard_index < 0) usage_error("shard: need --shard I");
  if (static_cast<unsigned>(opt.shard_index) >= sharding.shards)
    usage_error("shard: --shard " + std::to_string(opt.shard_index) +
                " out of range for --shards " +
                std::to_string(sharding.shards));
  if (opt.no_cache)
    usage_error("shard: the result cache is the shard's output "
                "(drop --no-cache)");
  if (sharding.shard_timeout_s > 0)
    usage_error("shard: --shard-timeout applies to the sweep orchestrator");

  const auto grids = final_grids(opt);
  const engine::GridPlan plan(grids);
  engine::ExperimentHarness harness(opt.threads);
  engine::ResultCache cache(opt.cache_dir);
  const engine::ShardManifest manifest = engine::run_shard(
      harness, plan, static_cast<unsigned>(opt.shard_index), sharding.shards,
      cache);

  const std::string path = cache.shard_manifest_path(
      plan.fingerprint(), manifest.shard, manifest.shards);
  write_file_atomic(path, engine::render_manifest(manifest));
  err << "shard " << manifest.shard << "/" << manifest.shards << ": cells ["
      << manifest.cell_lo << ", " << manifest.cell_hi << ") — "
      << manifest.hits << " hits, " << manifest.computed
      << " computed; manifest " << path << "\n";
  return 0;
}

// `run` is a one-cell sweep sharing the whole cached pipeline; the only
// difference is output shape (one object, not an array).
int do_run(SweepOptions opt, std::ostream& out, std::ostream& err) {
  const counters::Map before = counters::snapshot();
  const engine::ShardedSweepOptions& sharding = opt.sharding;
  if (sharding.shards != 0 || opt.shard_index >= 0 ||
      sharding.shard_timeout_s > 0)
    usage_error("run: sharding flags apply to sweep and shard only");
  if (!opt.config_grids.empty())
    usage_error("run: a \"grids\" config applies to sweep only");
  if (opt.config.topologies.size() != 1)
    usage_error("run: need exactly one --topo");
  if (opt.config.patterns.size() != 1)
    usage_error("run: need exactly one --pattern");
  if (opt.config.engines.size() > 1 || opt.config.seeds.size() > 1)
    usage_error("run: takes a single --engine/--seed (use sweep for grids)");
  if (opt.config.engines.empty()) opt.config.engines = {"flow"};
  // Empty seeds: the pattern's own seed= (default 1) applies.

  engine::ExperimentHarness harness(opt.threads);
  std::optional<engine::ResultCache> cache;
  if (!opt.no_cache) cache.emplace(opt.cache_dir);
  auto rows =
      harness.run_grid(opt.config, opt.labels, cache ? &*cache : nullptr);
  if (!opt.json_path.empty() && opt.json_path != "-") {
    engine::write_json(opt.json_path, rows);
    err << "wrote 1 row to " << opt.json_path << "\n";
  } else {
    out << engine::row_json(rows.at(0)) << "\n";
  }
  report(cache, before, err);
  return 0;
}

SweepOptions parse_grid_flags(const std::vector<std::string>& args,
                              std::size_t start) {
  SweepOptions opt;
  engine::ShardedSweepOptions& sharding = opt.sharding;
  // SweepConfig carries defaults ("flow", seed 1); flags and config files
  // must replace them, not append to them. final_grids/do_run re-default
  // any axis that stays empty.
  opt.config.engines.clear();
  opt.config.seeds.clear();
  std::string config_path;
  for (std::size_t i = start; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--topo" || flag == "--topology")
      opt.config.topologies.push_back(need_value(args, i));
    else if (flag == "--engine")
      opt.config.engines.push_back(need_value(args, i));
    else if (flag == "--pattern")
      opt.config.patterns.push_back(flow::parse_traffic(need_value(args, i)));
    else if (flag == "--seed")
      opt.config.seeds.push_back(parse_u64(flag, need_value(args, i)));
    else if (flag == "--label")
      opt.labels.push_back(need_value(args, i));
    else if (flag == "--config")
      config_path = need_value(args, i);
    else if (flag == "--json")
      opt.json_path = need_value(args, i);
    else if (flag == "--cache-dir")
      opt.cache_dir = need_value(args, i);
    else if (flag == "--no-cache")
      opt.no_cache = true;
    else if (flag == "--threads")
      opt.threads = static_cast<int>(
          parse_bounded(flag, need_value(args, i), 1 << 20));
    else if (flag == "--shards")
      sharding.shards = static_cast<unsigned>(
          parse_bounded(flag, need_value(args, i), 1 << 20));
    else if (flag == "--shard")
      opt.shard_index = static_cast<int>(
          parse_bounded(flag, need_value(args, i), 1 << 20));
    else if (flag == "--workers")
      sharding.workers = static_cast<unsigned>(
          parse_bounded(flag, need_value(args, i), 1 << 20));
    else if (flag == "--shard-timeout")
      sharding.shard_timeout_s = parse_seconds(flag, need_value(args, i));
    else
      usage_error("unknown flag '" + flag + "'");
  }
  if (!config_path.empty()) merge_config_file(config_path, &opt);
  return opt;
}

int do_ls(const std::vector<std::string>& args, std::size_t start,
          std::ostream& out) {
  std::string what = "all";
  if (start < args.size()) what = args[start];
  if (start + 1 < args.size()) usage_error("ls: too many arguments");
  const bool all = what == "all";
  if (!all && what != "engines" && what != "topologies" && what != "patterns")
    usage_error("ls: unknown section '" + what +
                "' (engines, topologies, patterns)");
  if (all || what == "engines") {
    out << "engines:\n";
    for (const std::string& name : engine::engine_names())
      out << "  " << name << "\n";
  }
  if (all || what == "topologies") {
    out << "topologies:\n";
    for (const std::string& line : engine::topology_grammar())
      out << "  " << line << "\n";
  }
  if (all || what == "patterns") {
    out << "patterns:\n";
    for (const std::string& line : flow::traffic_grammar())
      out << "  " << line << "\n";
  }
  return 0;
}

int do_cache(const std::vector<std::string>& args, std::size_t start,
             std::ostream& out) {
  std::string action;
  std::string dir = engine::ResultCache::kDefaultDir;
  for (std::size_t i = start; i < args.size(); ++i) {
    if (args[i] == "--cache-dir")
      dir = need_value(args, i);
    else if (action.empty() && args[i][0] != '-')
      action = args[i];
    else
      usage_error("cache: unknown argument '" + args[i] + "'");
  }
  engine::ResultCache cache(dir);
  if (action == "stats") {
    const auto stats = cache.stats();
    out << "dir: " << cache.dir() << "\n"
        << "entries: " << stats.entries << "\n"
        << "bytes: " << stats.bytes << "\n"
        << "quarantined: " << stats.quarantined << "\n";
    return 0;
  }
  if (action == "clear") {
    out << "removed " << cache.clear() << " entries from " << cache.dir()
        << "\n";
    return 0;
  }
  usage_error("cache: need an action (stats or clear)");
}

int dispatch(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  if (args.empty()) {
    err << kUsage;
    return 2;
  }
  const std::string& cmd = args[0];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    out << kUsage;
    return 0;
  }
  if (cmd == "run") return do_run(parse_grid_flags(args, 1), out, err);
  if (cmd == "sweep") return do_sweep(parse_grid_flags(args, 1), out, err);
  if (cmd == "shard") return do_shard(parse_grid_flags(args, 1), out, err);
  if (cmd == "ls") return do_ls(args, 1, out);
  if (cmd == "cache") return do_cache(args, 1, out);
  usage_error("unknown subcommand '" + cmd + "'");
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  try {
    return dispatch(args, out, err);
  } catch (const std::invalid_argument& e) {
    // Bad flags, unparsable topology/pattern specs, unknown engines.
    err << "hxmesh: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "hxmesh: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace hxmesh::cli
