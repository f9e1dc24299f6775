#include "flow/flow_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "core/counters.hpp"
#include "core/thread_pool.hpp"

namespace hxmesh::flow {

namespace {
Counter g_solves("flow.solves");
Counter g_strata("flow.strata");
Counter g_draws("flow.draws");
Counter g_subflows("flow.subflows");
Counter g_unconverged("flow.unconverged");

// Flows per sampling job: big enough that the parallel_for dispatch is
// noise, small enough to load-balance uneven path lengths.
constexpr std::size_t kSampleChunk = 256;
// Below this many flows a pool spin-up costs more than it saves; every
// phase computes the same bits either way (per-flow substreams, blocked
// index passes that do not depend on the block count), so the threshold
// shapes only wall-clock.
constexpr std::size_t kParallelSamplingMin = 2048;
// How many subflows ahead a batch freeze's settle pass prefetches a path's
// links; it prefetches path offsets twice as far ahead and the residuals
// of a path's links half as far, so each load finds the one before it
// cached.
constexpr std::size_t kSettlePrefetch = 16;

// Block b of `blocks` contiguous ranges over [0, n).
std::pair<std::size_t, std::size_t> block_range(std::size_t n,
                                                std::size_t blocks,
                                                std::size_t b) {
  return {n * b / blocks, n * (b + 1) / blocks};
}

// Min-queue of (saturation level, link) events: the initial keys, sorted
// by the caller and consumed front to back, plus a binary heap for
// re-keyed links.
class LevelQueue {
 public:
  explicit LevelQueue(std::vector<LevelKey> sorted_initial)
      : initial_(std::move(sorted_initial)) {
    assert(std::is_sorted(initial_.begin(), initial_.end()));
  }

  bool empty() const { return next_ == initial_.size() && heap_.empty(); }
  const LevelKey& top() const {
    return from_initial() ? initial_[next_] : heap_.front();
  }
  LevelKey pop() {
    if (from_initial()) return initial_[next_++];
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const LevelKey e = heap_.back();
    heap_.pop_back();
    return e;
  }
  void push(LevelKey e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

 private:
  bool from_initial() const {
    return next_ < initial_.size() &&
           (heap_.empty() || initial_[next_] < heap_.front());
  }

  std::vector<LevelKey> initial_;
  std::size_t next_ = 0;
  std::vector<LevelKey> heap_;
};
}  // namespace

void sort_level_keys(std::vector<LevelKey>& keys) {
  // Six passes of 11 bits each, least significant first; every pass is a
  // stable counting sort, so the input's link order breaks level ties.
  // All six histograms come from one read, and a pass whose digit is the
  // same in every key moves nothing.
  constexpr int kDigit = 11, kPasses = (64 + kDigit - 1) / kDigit;
  constexpr std::uint64_t kMask = (1u << kDigit) - 1;
  const std::size_t n = keys.size();
  if (n < 2) return;
  auto digit = [](const LevelKey& e, int pass) {
    return (std::bit_cast<std::uint64_t>(e.level) >> (kDigit * pass)) & kMask;
  };
  std::vector<std::uint32_t> count(kPasses << kDigit, 0);
  for (const LevelKey& e : keys) {
    assert(e.level > 0 && "a keyed link has residual above zero");
    for (int p = 0; p < kPasses; ++p) ++count[(p << kDigit) + digit(e, p)];
  }
  std::unique_ptr<LevelKey[]> scratch;
  LevelKey* from = keys.data();
  for (int p = 0; p < kPasses; ++p) {
    std::uint32_t* cursor = count.data() + (p << kDigit);
    if (cursor[digit(from[0], p)] == n) continue;
    if (!scratch) scratch = std::make_unique_for_overwrite<LevelKey[]>(n);
    LevelKey* to = from == keys.data() ? scratch.get() : keys.data();
    std::uint32_t sum = 0;
    for (std::size_t d = 0; d <= kMask; ++d)
      sum += std::exchange(cursor[d], sum);
    for (std::size_t i = 0; i < n; ++i)
      to[cursor[digit(from[i], p)]++] = from[i];
    from = to;
  }
  if (from != keys.data()) std::copy(from, from + n, keys.data());
}

FlowSolverConfig scaled_config(const topo::Topology& topology,
                               FlowSolverConfig config) {
  if (config.paths_per_flow == FlowSolverConfig{}.paths_per_flow &&
      topology.num_endpoints() > 4096)
    config.paths_per_flow = 16;
  return config;
}

FlowSolver::FlowSolver(const topo::Topology& topology, FlowSolverConfig config)
    : topology_(topology), config_(config) {}

// Event-driven max-min water-filling over subflow runs.
//
// A subflow is a run of consecutive sampled strata of one flow that drew
// the same path, with multiplicity w: it stands for w identical subflows,
// which always freeze together at the same level. Every count below is
// weighted (a link's active_count counts w per crossing) and every
// floating-point operation is the one the w copies would have made: a
// crossing takes the level off a residual w times, by repeated
// subtraction, and a flow adds its run's rate w times, in stratum order.
//
// All unfrozen subflows share one rising fill level. Link l saturates when
// the level reaches residual[l] / active_count[l] — its capacity minus the
// rates of its frozen crossers, over its unfrozen crossers — and then
// freezes those crossers at that level. Freezing a crosser below a link's
// saturation level only raises that level, so the links wait in a queue
// keyed lazily by it; the solve walks the levels in ascending order and
// touches each path link once per freeze plus O(log links) per queue
// operation. It stops once every subflow froze: the rates are the
// converged max-min fair allocation of the sampled paths, and the return
// value checks that no subflow is left active.
//
// Everything before the event loop — sampling, the link->subflows index,
// the first level's batch and the initial key order — runs over one pool
// in blocks whose results do not depend on the block count, so the rates
// are bit-identical at every pool width, including one.
bool FlowSolver::solve(std::vector<Flow>& flows,
                       topo::RouteMode route) const {
  const topo::Graph& g = topology_.graph();
  const std::size_t num_links = g.num_links();

  std::optional<ThreadPool> pool;
  if (config_.threads != 1 && flows.size() >= kParallelSamplingMin)
    pool.emplace(config_.threads);
  auto run = [&](std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (pool)
      pool->parallel_for(n, fn);
    else
      for (std::size_t i = 0; i < n; ++i) fn(i);
  };
  // One block per worker, over the subflows or over the links.
  const std::size_t blocks = pool ? static_cast<std::size_t>(pool->size()) : 1;

  // Sample subflow paths. Each flow draws from its own counter-seeded RNG
  // substream, so chunks of flows are independent jobs: the fan-out over
  // the pool produces exactly the serial paths for every worker count.
  // A stratum whose path equals the previous stratum's joins its run. A
  // pair with one path draws stratum 0 alone: every stratum would return
  // that path and join one run of weight paths_per_flow, and the draws
  // left out come from the flow's own substream, which nothing else reads.
  struct Run {
    int flow;
    std::uint32_t length;  // path links
    std::uint32_t weight;  // strata
  };
  struct Chunk {
    std::vector<topo::LinkId> links;  // concatenated run paths
    std::vector<Run> runs;
    std::size_t strata = 0, draws = 0;
  };
  const std::size_t nchunks =
      (flows.size() + kSampleChunk - 1) / kSampleChunk;
  std::vector<Chunk> chunks(nchunks);
  run(nchunks, [&](std::size_t c) {
    // Built locally and moved in at the end: neighbouring chunks run on
    // different workers, and growing buffers in adjacent Chunk headers
    // would make every append contend for a shared cache line.
    Chunk chunk;
    std::vector<topo::LinkId> path;
    const std::size_t lo = c * kSampleChunk;
    const std::size_t hi = std::min(flows.size(), lo + kSampleChunk);
    const int strata = config_.paths_per_flow;
    for (std::size_t f = lo; f < hi; ++f) {
      if (flows[f].src == flows[f].dst) continue;
      Rng rng = Rng::substream(config_.seed, f);
      const bool once = topology_.one_path(flows[f].src, flows[f].dst, route);
      chunk.strata += strata;
      for (int k = 0; k < (once ? 1 : strata); ++k) {
        topology_.sample_path_stratified(flows[f].src, flows[f].dst, k,
                                         strata, rng, path, route);
        ++chunk.draws;
        if (k > 0 && path.size() == chunk.runs.back().length &&
            std::equal(path.begin(), path.end(),
                       chunk.links.end() - path.size())) {
          ++chunk.runs.back().weight;
          continue;
        }
        chunk.runs.push_back({static_cast<int>(f),
                              static_cast<std::uint32_t>(path.size()), 1});
        chunk.links.insert(chunk.links.end(), path.begin(), path.end());
      }
      if (once) chunk.runs.back().weight = static_cast<std::uint32_t>(strata);
    }
    chunks[c] = std::move(chunk);
  });

  // Lay the chunks out in flow order: chunk c's subflows and path links
  // start at sub_base[c] and link_base[c]. The per-subflow state is SoA —
  // flow id, first link (sub_first[num_subs] is the end sentinel) and
  // multiplicity here, rate and the frozen flag below — so freezing and
  // the final rate accumulation stream through flat arrays. Each chunk
  // buffer is freed once copied. The flat arrays are uninitialized on
  // purpose: every slot is written by exactly one copy job.
  std::vector<std::size_t> sub_base(nchunks + 1, 0);
  std::vector<std::size_t> link_base(nchunks + 1, 0);
  std::size_t strata = 0, draws = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    sub_base[c + 1] = sub_base[c] + chunks[c].runs.size();
    link_base[c + 1] = link_base[c] + chunks[c].links.size();
    strata += chunks[c].strata;
    draws += chunks[c].draws;
  }
  const std::size_t num_subs = sub_base[nchunks];
  const std::size_t total_links = link_base[nchunks];
  g_solves.add();
  g_strata.add(strata);
  g_draws.add(draws);
  g_subflows.add(num_subs);
  auto sub_flow = std::make_unique_for_overwrite<int[]>(num_subs);
  auto sub_first =
      std::make_unique_for_overwrite<std::uint32_t[]>(num_subs + 1);
  auto sub_weight = std::make_unique_for_overwrite<std::uint32_t[]>(num_subs);
  auto path_links =
      std::make_unique_for_overwrite<topo::LinkId[]>(total_links);
  run(nchunks, [&](std::size_t c) {
    Chunk& chunk = chunks[c];
    std::size_t si = sub_base[c];
    auto first = static_cast<std::uint32_t>(link_base[c]);
    for (const Run& r : chunk.runs) {
      sub_flow[si] = r.flow;
      sub_weight[si] = r.weight;
      sub_first[si++] = first;
      first += r.length;
    }
    std::copy(chunk.links.begin(), chunk.links.end(),
              path_links.get() + link_base[c]);
    chunk = Chunk{};
  });
  sub_first[num_subs] = static_cast<std::uint32_t>(total_links);

  // Residual = capacity minus the rates of frozen crossers.
  std::vector<double> residual(num_links);
  // Link -> crossing subflows (CSR), by counting sort over the subflow
  // blocks. crossings[b * num_links + l] first counts block b's crossings
  // of link l, then becomes block b's write cursor in row l. Blocks are
  // contiguous and land in block order, so every row lists its crossers
  // in ascending subflow order: the index is the serial one for any block
  // count. A Valiant path that repeats a link sits in that link's row
  // once per occurrence. The same pass tallies in surplus[b * num_links +
  // l] the weight those crossings carry beyond one each, so a link's
  // active-crosser count is its row width plus its surplus. Only runs of
  // more than one stratum touch the surplus, so a flow set that barely
  // collapses pays one sequential fill for it, not a second scattered
  // add per crossing.
  std::vector<std::uint32_t> link_off(num_links + 1);
  std::vector<std::uint32_t> active_count(num_links);
  auto crossings =
      std::make_unique_for_overwrite<std::uint32_t[]>(blocks * num_links);
  auto surplus =
      std::make_unique_for_overwrite<std::uint32_t[]>(blocks * num_links);
  run(blocks, [&](std::size_t b) {
    std::uint32_t* count = crossings.get() + b * num_links;
    std::uint32_t* extra = surplus.get() + b * num_links;
    std::fill(count, count + num_links, 0u);
    std::fill(extra, extra + num_links, 0u);
    const auto [lo, hi] = block_range(num_subs, blocks, b);
    for (std::size_t si = lo; si < hi; ++si) {
      const std::uint32_t first = sub_first[si], last = sub_first[si + 1];
      for (std::uint32_t i = first; i < last; ++i) ++count[path_links[i]];
      if (const std::uint32_t w = sub_weight[si]; w > 1)
        for (std::uint32_t i = first; i < last; ++i)
          extra[path_links[i]] += w - 1;
    }
  });

  const double eps = 1e-6 * kLinkBandwidthBps;
  // The fill level at which link l saturates.
  auto key = [&](std::uint32_t l) { return residual[l] / active_count[l]; };
  // The saturation rule: within eps of full at `level`.
  auto saturated_at = [&](std::uint32_t l, double level) {
    return residual[l] - level * active_count[l] <= eps;
  };

  // Row offsets: one link-major prefix over the block counts, split into
  // link ranges that first total their crossings. The same pass seeds the
  // residuals and active counts and takes each range's lowest saturation
  // level; their minimum is the first level, exactly.
  std::vector<std::uint32_t> range_off(blocks + 1, 0);
  run(blocks, [&](std::size_t r) {
    const auto [lo, hi] = block_range(num_links, blocks, r);
    std::uint32_t total = 0;
    for (std::size_t b = 0; b < blocks; ++b)
      for (std::size_t l = lo; l < hi; ++l)
        total += crossings[b * num_links + l];
    range_off[r + 1] = total;
  });
  for (std::size_t r = 0; r < blocks; ++r) range_off[r + 1] += range_off[r];
  std::vector<double> range_level(blocks);
  run(blocks, [&](std::size_t r) {
    const auto [lo, hi] = block_range(num_links, blocks, r);
    std::uint32_t off = range_off[r];
    double lowest = std::numeric_limits<double>::infinity();
    for (std::size_t l = lo; l < hi; ++l) {
      link_off[l] = off;
      std::uint32_t weight = 0;
      for (std::size_t b = 0; b < blocks; ++b) {
        std::uint32_t& slot = crossings[b * num_links + l];
        const std::uint32_t count = slot;
        slot = off;
        off += count;
        weight += surplus[b * num_links + l];
      }
      active_count[l] = off - link_off[l] + weight;
      residual[l] = g.link(static_cast<topo::LinkId>(l)).bandwidth();
      if (active_count[l] > 0)
        lowest = std::min(lowest, key(static_cast<std::uint32_t>(l)));
    }
    range_level[r] = lowest;
  });
  link_off[num_links] = static_cast<std::uint32_t>(total_links);
  surplus.reset();
  const double first_level =
      *std::min_element(range_level.begin(), range_level.end());
  // Uninitialized on purpose: the scatter writes every slot (the offsets
  // were counted from exactly these path links).
  auto link_subs = std::make_unique_for_overwrite<std::uint32_t[]>(total_links);
  run(blocks, [&](std::size_t b) {
    std::uint32_t* cursor = crossings.get() + b * num_links;
    const auto [lo, hi] = block_range(num_subs, blocks, b);
    for (std::size_t si = lo; si < hi; ++si)
      for (std::uint32_t i = sub_first[si]; i < sub_first[si + 1]; ++i)
        link_subs[cursor[path_links[i]]++] = static_cast<std::uint32_t>(si);
  });

  // The first level's batch: a collective ring saturates millions of links
  // at that one level, where per-subflow passes beat popping each link.
  // Freezing a batch link's crossers freezes exactly the subflows whose
  // path crosses some batch link, all at the first level, so each
  // subflow decides on its own; then each link loses the level once per
  // weighted frozen crossing — by repeated subtraction, which is what the
  // event loop's settle does, so the residuals match it bit for bit. The
  // freeze writes `active` for every subflow and `rate` for every frozen
  // one, so neither array is initialized first.
  std::vector<std::uint8_t> in_batch(num_links);
  run(blocks, [&](std::size_t r) {
    const auto [lo, hi] = block_range(num_links, blocks, r);
    for (std::size_t l = lo; l < hi; ++l) {
      const auto link = static_cast<std::uint32_t>(l);
      in_batch[l] = active_count[l] > 0 && saturated_at(link, first_level);
    }
  });
  auto active = std::make_unique_for_overwrite<std::uint8_t[]>(num_subs);
  auto rate = std::make_unique_for_overwrite<double[]>(num_subs);
  std::vector<std::size_t> frozen(blocks, 0);
  run(blocks, [&](std::size_t b) {
    // Block b's counts now tally its weighted frozen crossings per link.
    std::uint32_t* count = crossings.get() + b * num_links;
    std::fill(count, count + num_links, 0u);
    const auto [lo, hi] = block_range(num_subs, blocks, b);
    std::size_t n = 0;
    for (std::size_t si = lo; si < hi; ++si) {
      const std::uint32_t first = sub_first[si], last = sub_first[si + 1];
      bool freeze = false;
      for (std::uint32_t i = first; i < last && !freeze; ++i)
        freeze = in_batch[path_links[i]];
      active[si] = !freeze;
      if (!freeze) continue;
      rate[si] = first_level;
      ++n;
      for (std::uint32_t i = first; i < last; ++i)
        count[path_links[i]] += sub_weight[si];
    }
    frozen[b] = n;
  });
  std::size_t remaining = num_subs;
  for (std::size_t n : frozen) remaining -= n;

  // Settle the batch per link and key the links that keep an active
  // crosser, in link order. Each link range then sorts its own keys once
  // the block counts are freed, so the sort's scratch copy of the keys
  // never coexists with them, and the ranges merge pairwise; the (level,
  // link) order is total, so the queue is the same for any range count.
  std::vector<std::vector<LevelKey>> keys(blocks);
  run(blocks, [&](std::size_t r) {
    const auto [lo, hi] = block_range(num_links, blocks, r);
    for (std::size_t l = lo; l < hi; ++l) {
      std::uint32_t n = 0;
      for (std::size_t b = 0; b < blocks; ++b)
        n += crossings[b * num_links + l];
      active_count[l] -= n;
      for (; n > 0; --n) residual[l] -= first_level;
      const auto link = static_cast<std::uint32_t>(l);
      if (active_count[l] > 0) keys[r].push_back({key(link), link});
    }
  });
  crossings.reset();
  run(blocks, [&](std::size_t r) { sort_level_keys(keys[r]); });
  for (std::size_t width = 1; width < blocks; width *= 2) {
    run((blocks + 2 * width - 1) / (2 * width), [&](std::size_t p) {
      const std::size_t a = 2 * width * p, b = a + width;
      if (b >= blocks) return;
      std::vector<LevelKey> merged(keys[a].size() + keys[b].size());
      std::merge(keys[a].begin(), keys[a].end(), keys[b].begin(),
                 keys[b].end(), merged.begin());
      keys[a] = std::move(merged);
      keys[b] = {};
    });
  }
  LevelQueue queue(std::move(keys[0]));

  // Each event pops the lowest current key as the next level, batches
  // every queued link within eps of saturating at it, and freezes the
  // batch. A popped key that no longer matches its link is stale (a
  // crosser froze since it was queued): re-key and push it back. Links
  // near the level that do not saturate go back unchanged after the
  // batch froze. The loop is serial: its batches are a few dozen links.
  //
  // A batch freezes in two passes. The first walks the batch links' rows
  // and freezes every still-active crosser at the level into `settling`.
  // The second hands each frozen subflow's rate to the links on its path,
  // prefetching path offsets, path links and their residuals a fixed
  // distance ahead: one subflow at a time, row -> subflow -> path ->
  // residual is a chain of cache misses. Every subtraction
  // in a batch removes the same level, so neither the order of the batch
  // links nor the split into passes changes a bit.
  double level = first_level;
  std::vector<std::uint32_t> batch;
  std::vector<LevelKey> deferred;
  std::vector<std::uint32_t> settling;
  while (remaining > 0 && !queue.empty()) {
    batch.clear();
    deferred.clear();
    while (!queue.empty() &&
           (batch.empty() || queue.top().level <= level + eps)) {
      const auto [k, l] = queue.pop();
      if (active_count[l] == 0) continue;
      const double current = key(l);
      if (current != k) {
        queue.push({current, l});
        continue;
      }
      if (batch.empty()) level = k;
      if (saturated_at(l, level))
        batch.push_back(l);
      else
        deferred.push_back({k, l});
    }
    settling.clear();
    for (std::uint32_t l : batch)
      for (std::uint32_t i = link_off[l]; i < link_off[l + 1]; ++i) {
        const std::uint32_t si = link_subs[i];
        if (!active[si]) continue;
        active[si] = 0;
        rate[si] = level;
        settling.push_back(si);
      }
    remaining -= settling.size();
    const std::size_t n = settling.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + 2 * kSettlePrefetch < n) {
        __builtin_prefetch(&sub_first[settling[i + 2 * kSettlePrefetch]]);
        __builtin_prefetch(&sub_weight[settling[i + 2 * kSettlePrefetch]]);
      }
      if (i + kSettlePrefetch < n)
        __builtin_prefetch(
            &path_links[sub_first[settling[i + kSettlePrefetch]]]);
      if (i + kSettlePrefetch / 2 < n) {
        const std::uint32_t ahead = settling[i + kSettlePrefetch / 2];
        for (std::uint32_t j = sub_first[ahead]; j < sub_first[ahead + 1];
             ++j) {
          __builtin_prefetch(&residual[path_links[j]], 1);
          __builtin_prefetch(&active_count[path_links[j]], 1);
        }
      }
      const std::uint32_t si = settling[i];
      const std::uint32_t w = sub_weight[si];
      for (std::uint32_t j = sub_first[si]; j < sub_first[si + 1]; ++j) {
        const topo::LinkId m = path_links[j];
        active_count[m] -= w;
        for (std::uint32_t c = w; c > 0; --c) residual[m] -= level;
      }
    }
    for (const LevelKey& e : deferred) queue.push(e);
  }
  // Every link with an active crosser is queued, so the loop ends only
  // once every subflow froze; the verdict checks that rather than
  // trusting the tally. A subflow left active keeps the level the fill
  // reached, so a failed solve still reports defined rates.
  bool converged = true;
  for (std::size_t si = 0; si < num_subs; ++si)
    if (active[si]) {
      converged = false;
      rate[si] = level;
    }
  if (!converged) g_unconverged.add();

  // A flow's subflows all sit in its sampling chunk, in stratum order, so
  // each chunk sums its own flows' rates, a run's w times.
  run(nchunks, [&](std::size_t c) {
    const std::size_t lo = c * kSampleChunk;
    const std::size_t hi = std::min(flows.size(), lo + kSampleChunk);
    for (std::size_t f = lo; f < hi; ++f) flows[f].rate = 0.0;
    for (std::size_t si = sub_base[c]; si < sub_base[c + 1]; ++si) {
      double& sum = flows[sub_flow[si]].rate;
      for (std::uint32_t k = sub_weight[si]; k > 0; --k) sum += rate[si];
    }
  });
  return converged;
}

}  // namespace hxmesh::flow
