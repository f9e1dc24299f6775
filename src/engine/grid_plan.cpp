#include "engine/grid_plan.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <stdexcept>

#include "core/hash.hpp"
#include "core/json.hpp"
#include "core/parse_num.hpp"
#include "engine/result_cache.hpp"

namespace hxmesh::engine {

namespace {

// "16x16" -> 256, "48" -> 48; nullopt on anything else. Only used for the
// cost estimate, so it is deliberately stricter than the factory parser:
// a token it cannot read just falls through to the flat default.
std::optional<std::uint64_t> dims_product(const std::string& token) {
  std::uint64_t product = 1, value = 0;
  bool any_digit = false;
  for (char c : token) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
      any_digit = true;
    } else if (c == 'x' && any_digit) {
      product *= value;
      value = 0;
      any_digit = false;
    } else {
      return std::nullopt;
    }
  }
  if (!any_digit) return std::nullopt;
  return product * value;
}

// Relative per-engine cost factor: the packet engine simulates every
// packet and is orders of magnitude slower per endpoint than the
// flow-level solve of the same cell.
std::uint64_t engine_cost_factor(const std::string& engine) {
  return engine == "packet" ? 256 : 1;
}

// Relative per-pattern cost factor: alltoall runs a whole shift ensemble,
// allreduce two ring phases; everything else is one flow set.
std::uint64_t pattern_cost_factor(const flow::TrafficSpec& pattern) {
  switch (pattern.kind) {
    case flow::PatternKind::kAlltoall: return 8;
    case flow::PatternKind::kAllreduce: return 2;
    default: return 1;
  }
}

}  // namespace

std::uint64_t GridPlan::estimate_endpoints(const std::string& spec) {
  constexpr std::uint64_t kFallback = 64;
  const std::vector<std::string> groups = split(spec, ':');
  if (groups.empty()) return kFallback;
  std::string family = groups[0];
  std::transform(family.begin(), family.end(), family.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  // Positional dims groups only; option groups ("faults=...", "seed=...")
  // contain '=' and are skipped.
  std::vector<std::uint64_t> dims;
  for (std::size_t i = 1; i < groups.size(); ++i) {
    if (groups[i].find('=') != std::string::npos) continue;
    if (std::optional<std::uint64_t> d = dims_product(groups[i]))
      dims.push_back(*d);
  }
  auto dim = [&](std::size_t i) { return i < dims.size() ? dims[i] : 0; };
  if (family == "hxmesh" && dims.size() >= 2) return dim(0) * dim(1);
  if (family == "hx2mesh" && !dims.empty()) return 4 * dim(0);
  if (family == "hx4mesh" && !dims.empty()) return 16 * dim(0);
  if ((family == "hyperx" || family == "torus") && !dims.empty()) return dim(0);
  if (family == "fattree" && !dims.empty()) return dim(0);
  if (family == "dragonfly") {
    // a:p:h:g — a routers of p endpoints per group, g groups.
    if (dims.size() >= 4) return dim(0) * dim(1) * dim(3);
    if (dims.size() == 3) return dim(0) * dim(1) * dim(2);
    if (groups.size() >= 2 && groups[1] == "large")
      return 16320;  // 32 routers x 17 endpoints x 30 groups
    return 1024;
  }
  return kFallback;
}

GridPlan::GridPlan(std::vector<GridSpec> grids) : grids_(std::move(grids)) {
  dims_.reserve(grids_.size());
  for (const GridSpec& grid : grids_) {
    const SweepConfig& config = grid.config;
    if (!grid.labels.empty() &&
        grid.labels.size() != config.topologies.size())
      throw std::invalid_argument(
          "GridPlan: labels must parallel topologies (got " +
          std::to_string(grid.labels.size()) + " labels for " +
          std::to_string(config.topologies.size()) + " topologies)");

    Grid dims;
    dims.first_cell = total_cells_;
    dims.nt = config.topologies.size();
    dims.ne = config.engines.size();
    dims.np = config.patterns.size();
    dims.inherit_seeds = config.seeds.empty();
    dims.ns = dims.inherit_seeds ? 1 : config.seeds.size();
    dims_.push_back(dims);

    const std::size_t cells_per_job = dims.np * dims.ns;
    for (std::size_t ti = 0; ti < dims.nt; ++ti) {
      const std::uint64_t endpoints =
          std::max<std::uint64_t>(1, estimate_endpoints(config.topologies[ti]));
      const std::size_t slot = topo_specs_.size();
      topo_specs_.push_back(config.topologies[ti]);
      // Batch slots by spec string (first-appearance numbering): repeated
      // topologies — across grids or within one axis — share one build.
      slot_batch_.push_back(batch_specs_.size());
      for (std::size_t b = 0; b < batch_specs_.size(); ++b)
        if (batch_specs_[b] == config.topologies[ti]) {
          slot_batch_.back() = b;
          break;
        }
      if (slot_batch_.back() == batch_specs_.size())
        batch_specs_.push_back(config.topologies[ti]);
      for (std::size_t ei = 0; ei < dims.ne; ++ei) {
        Job job;
        job.first_cell = total_cells_;
        job.last_cell = total_cells_ + cells_per_job;
        job.topo_slot = slot;
        job.engine = config.engines[ei];
        // Scheduling weights, in cell order (pattern-major, seed-minor —
        // the same order the cells are numbered in).
        const std::uint64_t engine_factor =
            engine_cost_factor(config.engines[ei]);
        for (std::size_t pi = 0; pi < dims.np; ++pi) {
          const std::uint64_t cost = std::max<std::uint64_t>(
              1, endpoints * engine_factor *
                     pattern_cost_factor(config.patterns[pi]));
          for (std::size_t si = 0; si < dims.ns; ++si)
            cell_costs_.push_back(cost);
        }
        jobs_.push_back(std::move(job));
        total_cells_ += cells_per_job;
      }
    }
  }

  cost_prefix_.reserve(cell_costs_.size() + 1);
  cost_prefix_.push_back(0);
  for (std::uint64_t cost : cell_costs_)
    cost_prefix_.push_back(cost_prefix_.back() + cost);
  total_cost_ = cost_prefix_.back();

  // Fingerprint: every axis value in order, plus the cache schema version,
  // so two plans agree on the hex string iff they describe the same cells.
  Fnv1a hash;
  hash.update(static_cast<std::uint64_t>(grids_.size()));
  for (const GridSpec& grid : grids_) {
    const SweepConfig& config = grid.config;
    hash.update(static_cast<std::uint64_t>(config.topologies.size()));
    for (const std::string& t : config.topologies) hash.update(t);
    hash.update(static_cast<std::uint64_t>(grid.labels.size()));
    for (const std::string& l : grid.labels) hash.update(l);
    hash.update(static_cast<std::uint64_t>(config.engines.size()));
    for (const std::string& e : config.engines) hash.update(e);
    hash.update(static_cast<std::uint64_t>(config.patterns.size()));
    for (const flow::TrafficSpec& p : config.patterns)
      hash.update(flow::pattern_spec(p));
    hash.update(static_cast<std::uint64_t>(config.seeds.size()));
    for (std::uint64_t s : config.seeds) hash.update(s);
  }
  hash.update(ResultCache::kSchemaVersion);
  fingerprint_ = hash.hex();
}

SweepRow GridPlan::cell_row(std::size_t cell) const {
  // Find the owning grid (grids are few; linear scan is fine and keeps the
  // plan allocation-free after construction).
  std::size_t g = 0;
  while (g + 1 < dims_.size() && cell >= dims_[g + 1].first_cell) ++g;
  const Grid& dims = dims_[g];
  const GridSpec& grid = grids_[g];
  const SweepConfig& config = grid.config;

  std::size_t rest = cell - dims.first_cell;
  const std::size_t si = rest % dims.ns;
  rest /= dims.ns;
  const std::size_t pi = rest % dims.np;
  rest /= dims.np;
  const std::size_t ei = rest % dims.ne;
  const std::size_t ti = rest / dims.ne;

  SweepRow row;
  row.topology = config.topologies[ti];
  row.label = grid.labels.empty() ? config.topologies[ti] : grid.labels[ti];
  row.engine = config.engines[ei];
  row.pattern = config.patterns[pi];
  row.seed = dims.inherit_seeds ? row.pattern.seed : config.seeds[si];
  row.pattern.seed = row.seed;
  return row;
}

std::string GridPlan::cell_key(std::size_t cell) const {
  const SweepRow row = cell_row(cell);
  return ResultCache::cell_key(row.topology, row.engine, row.pattern,
                               row.seed);
}

std::pair<std::size_t, std::size_t> GridPlan::shard_cells(
    unsigned shard, unsigned shards) const {
  if (shards == 0 || shard >= shards)
    throw std::invalid_argument("shard_cells: shard " + std::to_string(shard) +
                                " of " + std::to_string(shards));
  // Boundary k is the first cell whose cost *midpoint* lies past k/shards
  // of the total cost, so a cell joins the block that holds most of its
  // cost and a heavy last cell gets a block of its own instead of riding
  // in the one before it. Midpoints are strictly increasing (costs are
  // >= 1) and lie strictly inside (0, total), so boundaries are monotone
  // in k with boundary(0) == 0 and boundary(shards) == total_cells(),
  // which makes the blocks an exact contiguous cover.
  auto boundary = [&](unsigned k) {
    const unsigned __int128 target =
        static_cast<unsigned __int128>(total_cost_) * k * 2;
    std::size_t lo = 0, hi = total_cells_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const unsigned __int128 twice_midpoint =
          static_cast<unsigned __int128>(cost_prefix_[mid]) +
          cost_prefix_[mid + 1];
      if (twice_midpoint * shards > target)
        hi = mid;
      else
        lo = mid + 1;
    }
    return lo;
  };
  return {boundary(shard), boundary(shard + 1)};
}

std::string render_grids_json(const std::vector<GridSpec>& grids) {
  auto string_array = [](const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      out += (i ? "," : "");
      out += "\"" + JsonObject::escape(items[i]) + "\"";
    }
    return out + "]";
  };
  std::string out = "{\"grids\":[";
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const GridSpec& grid = grids[g];
    out += (g ? "," : "");
    out += "{\"topologies\":" + string_array(grid.config.topologies);
    if (!grid.labels.empty())
      out += ",\"labels\":" + string_array(grid.labels);
    out += ",\"engines\":" + string_array(grid.config.engines);
    std::vector<std::string> patterns;
    patterns.reserve(grid.config.patterns.size());
    for (const flow::TrafficSpec& p : grid.config.patterns)
      patterns.push_back(flow::pattern_spec(p));
    out += ",\"patterns\":" + string_array(patterns);
    if (!grid.config.seeds.empty()) {
      out += ",\"seeds\":[";
      for (std::size_t i = 0; i < grid.config.seeds.size(); ++i) {
        out += (i ? "," : "");
        out += std::to_string(grid.config.seeds[i]);
      }
      out += "]";
    }
    out += "}";
  }
  return out + "]}\n";
}

}  // namespace hxmesh::engine
