#include "topo/graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/counters.hpp"

namespace hxmesh::topo {

namespace {

Counter g_bundle_indexes("routing.bundle_indexes");

void check_open(bool finalized) {
  if (finalized) throw std::logic_error("Graph: add after finalize()");
}

// Turns per-node counts in off[n + 1] into row offsets.
void prefix_sum(std::vector<std::uint32_t>& off) {
  for (std::size_t n = 1; n < off.size(); ++n) off[n] += off[n - 1];
}

}  // namespace

void Graph::reserve(std::size_t nodes, std::size_t links) {
  kinds_.reserve(nodes);
  links_.reserve(links);
}

NodeId Graph::add_node(NodeKind kind) {
  check_open(finalized_);
  kinds_.push_back(kind);
  return static_cast<NodeId>(kinds_.size() - 1);
}

LinkId Graph::add_link(NodeId src, NodeId dst, CableKind cable) {
  check_open(finalized_);
  assert(src < num_nodes() && dst < num_nodes());
  links_.push_back(Link{src, dst, cable});
  return static_cast<LinkId>(links_.size() - 1);
}

LinkId Graph::add_duplex(NodeId a, NodeId b, CableKind cable) {
  LinkId first = add_link(a, b, cable);
  add_link(b, a, cable);
  return first;
}

void Graph::finalize() {
  if (finalized_) throw std::logic_error("Graph: finalize() called twice");
  finalized_ = true;
  const std::size_t n = num_nodes(), m = num_links();

  // Counting sort on src and on dst. Links are placed in ascending id, so
  // every out-row and every in-row lists its links in id order.
  out_off_.assign(n + 1, 0);
  in_off_.assign(n + 1, 0);
  for (const Link& l : links_) {
    ++out_off_[l.src + 1];
    ++in_off_[l.dst + 1];
  }
  prefix_sum(out_off_);
  prefix_sum(in_off_);
  out_ids_.resize(m);
  in_ids_.resize(m);
  std::vector<std::uint32_t> out_at(out_off_.begin(), out_off_.end() - 1);
  std::vector<std::uint32_t> in_at(in_off_.begin(), in_off_.end() - 1);
  for (LinkId id = 0; id < m; ++id) {
    const Link& l = links_[id];
    out_ids_[out_at[l.src]++] = id;
    in_ids_[in_at[l.dst]++] = id;
  }
}

void Graph::build_bundles() const {
  std::call_once(bundles_once_, [this] {
    // The in-CSR is ordered by (dst, id); scattering it by src (a stable
    // second counting-sort pass) orders each out-row by (dst, id), so
    // parallel links stay in out-link order.
    const std::size_t n = num_nodes(), m = num_links();
    bundle_ids_.resize(m);
    bundle_dst_.resize(m);
    std::vector<std::uint32_t> at(out_off_.begin(), out_off_.end() - 1);
    for (NodeId d = 0; d < n; ++d)
      for (std::uint32_t i = in_off_[d]; i < in_off_[d + 1]; ++i) {
        const LinkId id = in_ids_[i];
        const std::uint32_t j = at[links_[id].src]++;
        bundle_ids_[j] = id;
        bundle_dst_[j] = d;
      }
    g_bundle_indexes.add();
    bundles_ready_.store(true, std::memory_order_release);
  });
}

std::span<const LinkId> Graph::bundle(NodeId a, NodeId b) const {
  assert(finalized_ && "Graph queried before finalize()");
  if (!bundles_ready_.load(std::memory_order_acquire)) build_bundles();
  const NodeId* keys = bundle_dst_.data();
  const auto [first, last] =
      std::equal_range(keys + out_off_[a], keys + out_off_[a + 1], b);
  return {bundle_ids_.data() + (first - keys),
          static_cast<std::size_t>(last - first)};
}

void Graph::set_link_failed(LinkId l, bool failed) {
  if (failed_.size() < links_.size()) failed_.resize(links_.size(), 0);
  failed_[l] = failed ? 1 : 0;
  if (failed) {
    has_failed_ = true;
  } else {
    has_failed_ = num_failed_links() > 0;
  }
}

std::size_t Graph::num_failed_links() const {
  std::size_t n = 0;
  for (std::uint8_t f : failed_) n += f;
  return n;
}

std::vector<std::int32_t> Graph::bfs(NodeId start, bool reverse) const {
  assert(finalized_ && "Graph queried before finalize()");
  std::vector<std::int32_t> dist(num_nodes(), -1);
  // Every node enters the queue at most once, so a flat array is the FIFO.
  std::vector<NodeId> queue;
  queue.reserve(num_nodes());
  dist[start] = 0;
  queue.push_back(start);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (LinkId l : reverse ? in_links(u) : out_links(u)) {
      if (link_failed(l)) continue;
      const NodeId v = reverse ? links_[l].src : links_[l].dst;
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<std::int32_t> Graph::dist_to(NodeId dst) const {
  return bfs(dst, /*reverse=*/true);
}

std::vector<std::int32_t> Graph::dist_from(NodeId src) const {
  return bfs(src, /*reverse=*/false);
}

}  // namespace hxmesh::topo
