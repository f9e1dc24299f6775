#include "flow/flow_sim.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "core/thread_pool.hpp"

namespace hxmesh::flow {

namespace {
// Flows per sampling job: big enough that the parallel_for dispatch is
// noise, small enough to load-balance uneven path lengths.
constexpr std::size_t kSampleChunk = 256;
// Below this many flows a pool spin-up costs more than it saves; the
// sampled paths are identical either way (per-flow substreams), so the
// threshold shapes only wall-clock.
constexpr std::size_t kParallelSamplingMin = 2048;

// Min-queue of (saturation level, link) events: the initial keys sorted
// once and consumed front to back, plus a binary heap for re-keyed links.
// Pair order breaks level ties by link id, so the pop order is total.
class LevelQueue {
 public:
  using Event = std::pair<double, std::uint32_t>;

  explicit LevelQueue(std::vector<Event> initial)
      : initial_(std::move(initial)) {
    std::sort(initial_.begin(), initial_.end());
  }

  bool empty() const { return next_ == initial_.size() && heap_.empty(); }
  const Event& top() const {
    return from_initial() ? initial_[next_] : heap_.front();
  }
  Event pop() {
    if (from_initial()) return initial_[next_++];
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Event e = heap_.back();
    heap_.pop_back();
    return e;
  }
  void push(Event e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

 private:
  bool from_initial() const {
    return next_ < initial_.size() &&
           (heap_.empty() || initial_[next_] < heap_.front());
  }

  std::vector<Event> initial_;
  std::size_t next_ = 0;
  std::vector<Event> heap_;
};
}  // namespace

FlowSolver::FlowSolver(const topo::Topology& topology, FlowSolverConfig config)
    : topology_(topology), config_(config) {}

// Event-driven max-min water-filling.
//
// All unfrozen subflows share one rising fill level. Link l saturates when
// the level reaches residual[l] / active_count[l] — its capacity minus the
// rates of its frozen crossers, over its unfrozen crossers — and then
// freezes those crossers at that level. Freezing a crosser below a link's
// saturation level only raises that level, so the links wait in a queue
// keyed lazily by it; the solve walks the levels in ascending order and
// touches each path link once per freeze plus O(log links) per queue
// operation. It
// stops exactly when every subflow froze: the rates are the converged
// max-min fair allocation of the sampled paths.
void FlowSolver::solve(std::vector<Flow>& flows,
                       topo::RouteMode route) const {
  const topo::Graph& g = topology_.graph();

  // Sample subflow paths. Each flow draws from its own counter-seeded RNG
  // substream, so chunks of flows are independent jobs: the fan-out over
  // the pool produces exactly the serial paths for every worker count.
  // Chunks land in per-chunk buffers and are flattened in flow order
  // below, which keeps the downstream filling identical to a serial
  // sampling loop.
  struct Chunk {
    std::vector<topo::LinkId> links;  // concatenated sampled paths
    std::vector<std::pair<int, std::uint32_t>> subs;  // (flow, path length)
  };
  const std::size_t nchunks =
      (flows.size() + kSampleChunk - 1) / kSampleChunk;
  std::vector<Chunk> chunks(nchunks);
  auto sample_chunk = [&](std::size_t c) {
    Chunk& chunk = chunks[c];
    std::vector<topo::LinkId> path;
    const std::size_t lo = c * kSampleChunk;
    const std::size_t hi = std::min(flows.size(), lo + kSampleChunk);
    for (std::size_t f = lo; f < hi; ++f) {
      if (flows[f].src == flows[f].dst) continue;
      Rng rng = Rng::substream(config_.seed, f);
      for (int k = 0; k < config_.paths_per_flow; ++k) {
        topology_.sample_path_stratified(flows[f].src, flows[f].dst, k,
                                         config_.paths_per_flow, rng, path,
                                         route);
        chunk.subs.emplace_back(static_cast<int>(f),
                                static_cast<std::uint32_t>(path.size()));
        chunk.links.insert(chunk.links.end(), path.begin(), path.end());
      }
    }
  };
  if (config_.sample_threads != 1 && flows.size() >= kParallelSamplingMin) {
    ThreadPool pool(config_.sample_threads);
    pool.parallel_for(nchunks, sample_chunk);
  } else {
    for (std::size_t c = 0; c < nchunks; ++c) sample_chunk(c);
  }

  // Flatten in flow order, counting per-link crossings as the links land.
  // The per-subflow state is SoA — flow id / first link / link count here,
  // rate and the frozen flag below — so freezing and the final rate
  // accumulation stream through flat arrays.
  for (Flow& f : flows) f.rate = 0.0;
  std::vector<int> sub_flow;
  std::vector<std::uint32_t> sub_first;
  std::vector<std::uint32_t> sub_count;
  std::vector<topo::LinkId> path_links;
  {
    std::size_t total_subs = 0, total_links = 0;
    for (const Chunk& chunk : chunks) {
      total_subs += chunk.subs.size();
      total_links += chunk.links.size();
    }
    sub_flow.reserve(total_subs);
    sub_first.reserve(total_subs);
    sub_count.reserve(total_subs);
    path_links.reserve(total_links);
  }
  std::vector<std::uint32_t> link_off(g.num_links() + 1, 0);
  for (const Chunk& chunk : chunks) {
    std::size_t pos = 0;
    for (const auto& [f, count] : chunk.subs) {
      sub_flow.push_back(f);
      sub_first.push_back(static_cast<std::uint32_t>(path_links.size()));
      sub_count.push_back(count);
      for (std::uint32_t i = 0; i < count; ++i)
        ++link_off[chunk.links[pos + i] + 1];
      path_links.insert(path_links.end(), chunk.links.begin() + pos,
                        chunk.links.begin() + pos + count);
      pos += count;
    }
  }
  const std::size_t num_subs = sub_flow.size();

  // Residual = capacity minus the rates of frozen crossers.
  std::vector<double> residual(g.num_links());
  for (std::size_t l = 0; l < g.num_links(); ++l)
    residual[l] = g.link(static_cast<topo::LinkId>(l)).bandwidth_bps;
  // Link -> crossing subflows (CSR). Minimal paths never repeat a link, so
  // each subflow appears at most once per link list — which also makes the
  // CSR row width of a link exactly its active-crosser count.
  for (std::size_t l = 0; l < g.num_links(); ++l)
    link_off[l + 1] += link_off[l];
  std::vector<std::uint32_t> active_count(g.num_links());
  for (std::size_t l = 0; l < g.num_links(); ++l)
    active_count[l] = link_off[l + 1] - link_off[l];
  // Uninitialized on purpose: the scatter below writes every slot (the
  // offsets were counted from exactly these path links), and zero-filling
  // multi-MB arrays first is measurable at hx2mesh:64x64 scale.
  std::unique_ptr<std::uint32_t[]> link_subs(
      new std::uint32_t[path_links.size()]);
  {
    std::vector<std::uint32_t> fill(link_off.begin(), link_off.end() - 1);
    for (std::size_t si = 0; si < num_subs; ++si)
      for (std::uint32_t i = 0; i < sub_count[si]; ++i)
        link_subs[fill[path_links[sub_first[si] + i]]++] =
            static_cast<std::uint32_t>(si);
  }

  std::vector<std::uint8_t> active(num_subs, 1);
  // Uninitialized on purpose: every subflow crosses at least one link, so
  // every slot is written exactly once, when that subflow freezes.
  std::unique_ptr<double[]> rate(new double[num_subs]);
  const double eps = 1e-6 * kLinkBandwidthBps;
  std::size_t remaining = num_subs;

  // The fill level at which link l saturates.
  auto key = [&](std::uint32_t l) { return residual[l] / active_count[l]; };
  // The saturation rule: within eps of full at `level`.
  auto saturated_at = [&](std::uint32_t l, double level) {
    return residual[l] - level * active_count[l] <= eps;
  };
  // Freezes every still-active crosser of link l at `level`, handing its
  // rate to the residual of each link on its path. Every subtraction in a
  // batch removes the same `level`, so the order in which a batch's links
  // saturate never changes a bit.
  auto saturate = [&](std::uint32_t l, double level) {
    for (std::uint32_t i = link_off[l]; i < link_off[l + 1]; ++i) {
      const std::uint32_t si = link_subs[i];
      if (!active[si]) continue;
      active[si] = 0;
      rate[si] = level;
      --remaining;
      const std::uint32_t first = sub_first[si];
      for (std::uint32_t j = 0; j < sub_count[si]; ++j) {
        const topo::LinkId m = path_links[first + j];
        residual[m] -= level;
        --active_count[m];
      }
    }
  };

  // The first level and its batch come from two linear passes: a
  // collective ring saturates millions of links at that one level, where
  // scanning beats sorting and popping each of them. Only the links that
  // survive it are queued.
  double level = std::numeric_limits<double>::infinity();
  for (std::uint32_t l = 0; l < g.num_links(); ++l)
    if (active_count[l] > 0) level = std::min(level, key(l));
  std::vector<std::uint32_t> batch;
  for (std::uint32_t l = 0; l < g.num_links(); ++l)
    if (active_count[l] > 0 && saturated_at(l, level)) batch.push_back(l);
  for (std::uint32_t l : batch) saturate(l, level);

  std::vector<LevelQueue::Event> initial;
  for (std::uint32_t l = 0; l < g.num_links(); ++l)
    if (active_count[l] > 0) initial.emplace_back(key(l), l);
  LevelQueue queue(std::move(initial));

  // Each event pops the lowest current key as the next level, batches
  // every queued link within eps of saturating at it, and freezes the
  // batch. A popped key that no longer matches its link is stale (a
  // crosser froze since it was queued): re-key and push it back. Links
  // near the level that do not saturate go back unchanged after the
  // batch froze.
  std::vector<LevelQueue::Event> deferred;
  while (remaining > 0 && !queue.empty()) {
    batch.clear();
    deferred.clear();
    while (!queue.empty() &&
           (batch.empty() || queue.top().first <= level + eps)) {
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
        deferred.emplace_back(k, l);
    }
    for (std::uint32_t l : batch) saturate(l, level);
    for (const LevelQueue::Event& e : deferred) queue.push(e);
  }
  // Every link with an active crosser is queued, so the loop only ends
  // once every subflow froze.
  assert(remaining == 0);

  for (std::size_t si = 0; si < num_subs; ++si)
    flows[sub_flow[si]].rate += rate[si];
}

}  // namespace hxmesh::flow
