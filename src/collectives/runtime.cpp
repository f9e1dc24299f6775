#include "collectives/runtime.hpp"

#include <cassert>
#include <functional>
#include <memory>

namespace hxmesh::collectives {

namespace {

using sim::MiniMpi;

int mod(int a, int m) { return ((a % m) + m) % m; }

// Value of every float `rank` sends in run_alltoall.
float alltoall_fill(int rank) { return static_cast<float>(rank + 1); }

// Pipelined ring phase over one element range [lo, hi) of the data buffers.
// Every ring position must be activate()d exactly once — immediately for a
// standalone collective, or when the rank finishes its previous phase in a
// composed algorithm (2D torus). Messages arriving before a rank activates
// wait in MiniMPI's unexpected-message queue.
//
// Chunk c covers elements [lo + c*len/p, lo + (c+1)*len/p).
// Reduce-scatter rounds r = 0..p-2: position i sends chunk (i - r), then
// accumulates chunk (i - r - 1); afterwards position i owns chunk (i + 1).
// Allgather rounds g = 0..p-2: position i sends chunk (i + 1 - g), then
// copies chunk (i - g).
class RingOp : public std::enable_shared_from_this<RingOp> {
 public:
  enum class Kind { kReduceScatter, kAllGather, kAllReduce };

  static std::shared_ptr<RingOp> create(
      MiniMpi& mpi, Kind kind, std::vector<int> ring,
      std::vector<std::vector<float>>* data, std::size_t lo, std::size_t hi,
      int tag_base, std::function<void(int pos)> on_rank_done) {
    auto op = std::shared_ptr<RingOp>(new RingOp());
    op->mpi_ = &mpi;
    op->kind_ = kind;
    op->ring_ = std::move(ring);
    op->data_ = data;
    op->lo_ = lo;
    op->hi_ = hi;
    op->tag_base_ = tag_base;
    op->on_rank_done_ = std::move(on_rank_done);
    op->p_ = static_cast<int>(op->ring_.size());
    return op;
  }

  /// Starts participation of ring position `pos` (its data must be ready).
  void activate(int pos) {
    if (p_ == 1) {
      if (on_rank_done_) on_rank_done_(pos);
      return;
    }
    if (do_reduce()) {
      send_to_next(pos, mod(pos, p_), tag_base_);
      post_reduce_recv(pos, 0);
    } else {
      send_to_next(pos, mod(pos + 1, p_), gather_tag(0));
      post_gather_recv(pos, 0);
    }
  }

  void activate_all() {
    for (int i = 0; i < p_; ++i) activate(i);
  }

  int size() const { return p_; }

 private:
  RingOp() = default;

  int p_ = 0;
  MiniMpi* mpi_ = nullptr;
  Kind kind_ = Kind::kAllReduce;
  std::vector<int> ring_;
  std::vector<std::vector<float>>* data_ = nullptr;
  std::size_t lo_ = 0, hi_ = 0;
  int tag_base_ = 0;
  std::function<void(int)> on_rank_done_;

  std::size_t chunk_begin(int c) const {
    return lo_ + (hi_ - lo_) * static_cast<std::size_t>(c) / p_;
  }
  std::size_t chunk_end(int c) const { return chunk_begin(c + 1); }
  MiniMpi::SharedPayload chunk_copy(int rank, int c) const {
    const auto& v = (*data_)[rank];
    return std::make_shared<const std::vector<float>>(
        v.begin() + chunk_begin(c), v.begin() + chunk_end(c));
  }

  bool do_reduce() const { return kind_ != Kind::kAllGather; }
  bool do_gather() const { return kind_ != Kind::kReduceScatter; }
  int gather_tag(int g) const {
    return tag_base_ + (do_reduce() ? p_ - 1 : 0) + g;
  }

  void send_to_next(int pos, int chunk, int tag) {
    int next = mod(pos + 1, p_);
    mpi_->send(ring_[pos], ring_[next], tag, chunk_copy(ring_[pos], chunk));
  }

  void post_reduce_recv(int pos, int round) {
    int prev = mod(pos - 1, p_);
    auto self = shared_from_this();
    mpi_->recv(ring_[pos], ring_[prev], tag_base_ + round,
               [self, pos, round](const std::vector<float>& payload) {
                 self->on_reduce_recv(pos, round, payload);
               });
  }

  void on_reduce_recv(int pos, int round, const std::vector<float>& payload) {
    int c = mod(pos - round - 1, p_);
    auto& v = (*data_)[ring_[pos]];
    std::size_t b = chunk_begin(c);
    for (std::size_t k = 0; k < payload.size(); ++k) v[b + k] += payload[k];
    if (round + 1 <= p_ - 2) {
      send_to_next(pos, c, tag_base_ + round + 1);
      post_reduce_recv(pos, round + 1);
      return;
    }
    // Reduce-scatter finished at this rank; it owns chunk (pos + 1).
    if (!do_gather()) {
      if (on_rank_done_) on_rank_done_(pos);
      return;
    }
    send_to_next(pos, mod(pos + 1, p_), gather_tag(0));
    post_gather_recv(pos, 0);
  }

  void post_gather_recv(int pos, int g) {
    int prev = mod(pos - 1, p_);
    auto self = shared_from_this();
    mpi_->recv(ring_[pos], ring_[prev], gather_tag(g),
               [self, pos, g](const std::vector<float>& payload) {
                 self->on_gather_recv(pos, g, payload);
               });
  }

  void on_gather_recv(int pos, int g, const std::vector<float>& payload) {
    int c = mod(pos - g, p_);
    auto& v = (*data_)[ring_[pos]];
    std::size_t b = chunk_begin(c);
    for (std::size_t k = 0; k < payload.size(); ++k) v[b + k] = payload[k];
    if (g + 1 <= p_ - 2) {
      send_to_next(pos, c, gather_tag(g + 1));
      post_gather_recv(pos, g + 1);
      return;
    }
    if (on_rank_done_) on_rank_done_(pos);
  }
};

}  // namespace

picoseconds run_allreduce_ring(sim::MiniMpi& mpi, const std::vector<int>& ring,
                               std::vector<std::vector<float>>& data) {
  auto op = RingOp::create(mpi, RingOp::Kind::kAllReduce, ring, &data, 0,
                           data[ring[0]].size(), /*tag_base=*/0, nullptr);
  op->activate_all();
  return mpi.run();
}

picoseconds run_allreduce_bidir(sim::MiniMpi& mpi,
                                const std::vector<int>& ring,
                                std::vector<std::vector<float>>& data) {
  const std::size_t n = data[ring[0]].size();
  const int p = static_cast<int>(ring.size());
  std::vector<int> reversed(ring.rbegin(), ring.rend());
  auto fwd = RingOp::create(mpi, RingOp::Kind::kAllReduce, ring, &data, 0,
                            n / 2, 0, nullptr);
  auto bwd = RingOp::create(mpi, RingOp::Kind::kAllReduce, reversed, &data,
                            n / 2, n, 2 * p + 1, nullptr);
  fwd->activate_all();
  bwd->activate_all();
  return mpi.run();
}

picoseconds run_allreduce_two_rings(sim::MiniMpi& mpi,
                                    const std::vector<int>& red,
                                    const std::vector<int>& green,
                                    std::vector<std::vector<float>>& data) {
  const std::size_t n = data[red[0]].size();
  const int p = static_cast<int>(red.size());
  std::vector<int> red_rev(red.rbegin(), red.rend());
  std::vector<int> green_rev(green.rbegin(), green.rend());
  struct Quarter {
    const std::vector<int>* ring;
    std::size_t lo, hi;
    int tag_base;
  };
  const Quarter quarters[] = {{&red, 0, n / 4, 0},
                              {&red_rev, n / 4, n / 2, 2 * p + 1},
                              {&green, n / 2, 3 * n / 4, 4 * p + 2},
                              {&green_rev, 3 * n / 4, n, 6 * p + 3}};
  for (const Quarter& q : quarters) {
    auto op = RingOp::create(mpi, RingOp::Kind::kAllReduce, *q.ring, &data,
                             q.lo, q.hi, q.tag_base, nullptr);
    op->activate_all();
  }
  return mpi.run();
}

picoseconds run_allreduce_torus2d(sim::MiniMpi& mpi,
                                  const std::vector<std::vector<int>>& grid,
                                  std::vector<std::vector<float>>& data) {
  const int rows = static_cast<int>(grid.size());
  const int cols = static_cast<int>(grid[0].size());
  const std::size_t n = data[grid[0][0]].size();
  const int base_col = cols + 1;                 // column-phase tags
  const int base_ag = base_col + 2 * rows + 2;   // row-allgather tags

  auto chunk_lo = [n, cols](int c) {
    return n * static_cast<std::size_t>(c) / cols;
  };

  // Phase 3: row allgather ops (positions activated as columns finish).
  std::vector<std::shared_ptr<RingOp>> row_ag(rows);
  for (int r = 0; r < rows; ++r)
    row_ag[r] = RingOp::create(mpi, RingOp::Kind::kAllGather, grid[r], &data,
                               0, n, base_ag, nullptr);

  // Phase 2: one column allreduce per column c, operating on the chunk that
  // column owns after the row reduce-scatter (chunk (c + 1) mod cols).
  std::vector<std::shared_ptr<RingOp>> col_ar(cols);
  for (int c = 0; c < cols; ++c) {
    int chunk = mod(c + 1, cols);
    std::vector<int> col_ring(rows);
    for (int r = 0; r < rows; ++r) col_ring[r] = grid[r][c];
    col_ar[c] = RingOp::create(
        mpi, RingOp::Kind::kAllReduce, col_ring, &data, chunk_lo(chunk),
        chunk_lo(chunk + 1), base_col, [&row_ag, c](int row_pos) {
          row_ag[row_pos]->activate(c);
        });
  }

  // Phase 1: row reduce-scatter; each rank joins its column when done.
  std::vector<std::shared_ptr<RingOp>> row_rs(rows);
  for (int r = 0; r < rows; ++r) {
    row_rs[r] = RingOp::create(mpi, RingOp::Kind::kReduceScatter, grid[r],
                               &data, 0, n, 0, [&col_ar, r](int pos) {
                                 col_ar[pos]->activate(r);
                               });
    row_rs[r]->activate_all();
  }
  return mpi.run();
}

picoseconds run_alltoall(sim::MiniMpi& mpi, const std::vector<int>& ranks,
                         int elems_per_pair, bool* blocks_ok) {
  const int p = static_cast<int>(ranks.size());
  // Shared with the handlers: a receive that never matched stays posted
  // in `mpi` after this call returns.
  auto ok = std::make_shared<bool>(true);
  for (int j = 0; j < p; ++j) {
    // One block per sender, shared by the messages to all its peers.
    const auto block = std::make_shared<const std::vector<float>>(
        elems_per_pair, alltoall_fill(ranks[j]));
    for (int r = 1; r < p; ++r) {
      mpi.send(ranks[j], ranks[(j + r) % p], r, block);
      const int from = ranks[mod(j - r, p)];
      mpi.recv(ranks[j], from, r,
               [ok, from, elems_per_pair](const std::vector<float>& got) {
                 const float want = alltoall_fill(from);
                 // A branch-free count (no early exit) vectorizes.
                 std::size_t wrong = 0;
                 for (float v : got) wrong += v != want;
                 *ok = *ok && wrong == 0 &&
                       got.size() == static_cast<std::size_t>(elems_per_pair);
               });
    }
  }
  const picoseconds end = mpi.run();
  if (blocks_ok) *blocks_ok = *ok;
  return end;
}

}  // namespace hxmesh::collectives
