#include "collectives/runtime.hpp"

#include <algorithm>
#include <deque>
#include <functional>

namespace hxmesh::collectives {

namespace {

using sim::MiniMpi;
using sim::Witness;

int mod(int a, int m) { return ((a % m) + m) % m; }

// The witnesses of one allreduce, `segments` per rank, and its verdict.
struct Witnesses {
  Witnesses(int num_ranks, int segments, std::vector<int> participants)
      : segments(segments),
        ranks(std::move(participants)),
        w(static_cast<std::size_t>(num_ranks) * segments) {
    for (int r : ranks) {
      std::fill_n(at(r, 0), segments, Witness::of(r));
      all += Witness::of(r);
    }
  }

  Witness* at(int rank, int segment) {
    return &w[static_cast<std::size_t>(rank) * segments + segment];
  }

  // Runs `mpi` to completion and sets *ok (when given) to the verdict.
  picoseconds run(MiniMpi& mpi, bool* ok) {
    const picoseconds end = mpi.run();
    if (ok)
      *ok = std::all_of(ranks.begin(), ranks.end(), [this](int r) {
        return std::all_of(at(r, 0), at(r, segments),
                           [this](const Witness& x) { return x == all; });
      });
    return end;
  }

  int segments;
  std::vector<int> ranks;
  std::vector<Witness> w;
  Witness all;
};

// Pipelined ring phase over one word range [lo, hi) of the buffers, whose
// chunk c covers words [lo + c*len/p, lo + (c+1)*len/p) and witness
// segments [seg_lo + c*span, seg_lo + (c+1)*span). Every ring position
// must be activate()d exactly once — immediately for a standalone
// collective, or when the rank finishes its previous phase in a composed
// algorithm (2D torus). Messages arriving before a rank activates wait in
// MiniMPI's unexpected-message queue.
//
// Reduce-scatter rounds r = 0..p-2: position i sends chunk (i - r), then
// accumulates chunk (i - r - 1); afterwards position i owns chunk (i + 1).
// Allgather rounds g = 0..p-2: position i sends chunk (i + 1 - g), then
// copies chunk (i - g).
//
// The run_* call that creates an op owns it until mpi.run() returns; its
// receive handlers hold a raw pointer to it (plus two ints, which keeps
// them in std::function's inline storage).
class RingOp {
 public:
  enum class Kind { kReduceScatter, kAllGather, kAllReduce };

  RingOp(MiniMpi& mpi, Kind kind, std::vector<int> ring,
         Witnesses* witnesses, std::size_t lo, std::size_t hi, int seg_lo,
         int span, int tag_base,
         std::function<void(int pos)> on_rank_done = nullptr)
      : p_(static_cast<int>(ring.size())),
        mpi_(&mpi),
        kind_(kind),
        ring_(std::move(ring)),
        witnesses_(witnesses),
        lo_(lo),
        hi_(hi),
        seg_lo_(seg_lo),
        span_(span),
        tag_base_(tag_base),
        on_rank_done_(std::move(on_rank_done)) {}
  RingOp(const RingOp&) = delete;
  RingOp& operator=(const RingOp&) = delete;

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

 private:
  int p_ = 0;
  MiniMpi* mpi_ = nullptr;
  Kind kind_ = Kind::kAllReduce;
  std::vector<int> ring_;
  Witnesses* witnesses_ = nullptr;
  std::size_t lo_ = 0, hi_ = 0;
  int seg_lo_ = 0, span_ = 1;
  int tag_base_ = 0;
  std::function<void(int)> on_rank_done_;

  std::size_t chunk_begin(int c) const {
    return lo_ + (hi_ - lo_) * static_cast<std::size_t>(c) / p_;
  }
  // The first witness segment of chunk c at position pos.
  Witness* segments(int pos, int c) {
    return witnesses_->at(ring_[pos], seg_lo_ + c * span_);
  }

  bool do_reduce() const { return kind_ != Kind::kAllGather; }
  bool do_gather() const { return kind_ != Kind::kReduceScatter; }
  int gather_tag(int g) const {
    return tag_base_ + (do_reduce() ? p_ - 1 : 0) + g;
  }

  void send_to_next(int pos, int chunk, int tag) {
    const Witness* seg = segments(pos, chunk);
    const bool common = std::all_of(
        seg + 1, seg + span_, [seg](const Witness& w) { return w == seg[0]; });
    const std::uint64_t bytes =
        sizeof(float) * (chunk_begin(chunk + 1) - chunk_begin(chunk));
    mpi_->send(ring_[pos], ring_[mod(pos + 1, p_)], tag, bytes,
               common ? seg[0] : Witness::poisoned());
  }

  void post_reduce_recv(int pos, int round) {
    mpi_->recv(ring_[pos], ring_[mod(pos - 1, p_)], tag_base_ + round,
               [this, pos, round](std::uint64_t, Witness got) {
                 on_reduce_recv(pos, round, got);
               });
  }

  void on_reduce_recv(int pos, int round, const Witness& got) {
    int c = mod(pos - round - 1, p_);
    Witness* seg = segments(pos, c);
    for (int k = 0; k < span_; ++k) seg[k] += got;
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
    mpi_->recv(ring_[pos], ring_[mod(pos - 1, p_)], gather_tag(g),
               [this, pos, g](std::uint64_t, Witness got) {
                 on_gather_recv(pos, g, got);
               });
  }

  void on_gather_recv(int pos, int g, const Witness& got) {
    int c = mod(pos - g, p_);
    std::fill_n(segments(pos, c), span_, got);
    if (g + 1 <= p_ - 2) {
      send_to_next(pos, c, gather_tag(g + 1));
      post_gather_recv(pos, g + 1);
      return;
    }
    if (on_rank_done_) on_rank_done_(pos);
  }
};

// Allreduce with the words cut into one contiguous part per ring, each
// reduced by a pipelined ring over its ring with its own tags and
// segments. Every ring holds the same ranks.
picoseconds run_ring_parts(sim::MiniMpi& mpi,
                           const std::vector<std::vector<int>>& rings,
                           int words, bool* ok) {
  const auto n = static_cast<std::size_t>(words);
  const std::size_t parts = rings.size();
  const int p = static_cast<int>(rings[0].size());
  Witnesses witnesses(mpi.num_ranks(), static_cast<int>(parts) * p, rings[0]);
  std::deque<RingOp> ops;  // stable addresses for the handlers
  for (std::size_t k = 0; k < parts; ++k) {
    const int i = static_cast<int>(k);
    ops.emplace_back(mpi, RingOp::Kind::kAllReduce, rings[k], &witnesses,
                     n * k / parts, n * (k + 1) / parts, i * p, 1,
                     i * (2 * p + 1));
    ops.back().activate_all();
  }
  return witnesses.run(mpi, ok);
}

std::vector<int> reversed(const std::vector<int>& ring) {
  return {ring.rbegin(), ring.rend()};
}

}  // namespace

picoseconds run_allreduce_ring(sim::MiniMpi& mpi, const std::vector<int>& ring,
                               int words, bool* ok) {
  return run_ring_parts(mpi, {ring}, words, ok);
}

picoseconds run_allreduce_bidir(sim::MiniMpi& mpi,
                                const std::vector<int>& ring, int words,
                                bool* ok) {
  return run_ring_parts(mpi, {ring, reversed(ring)}, words, ok);
}

picoseconds run_allreduce_two_rings(sim::MiniMpi& mpi,
                                    const std::vector<int>& red,
                                    const std::vector<int>& green, int words,
                                    bool* ok) {
  return run_ring_parts(
      mpi, {red, reversed(red), green, reversed(green)}, words, ok);
}

picoseconds run_allreduce_torus2d(sim::MiniMpi& mpi,
                                  const std::vector<std::vector<int>>& grid,
                                  int words, bool* ok) {
  const int rows = static_cast<int>(grid.size());
  const int cols = static_cast<int>(grid[0].size());
  const auto n = static_cast<std::size_t>(words);
  const int base_col = cols + 1;                 // column-phase tags
  const int base_ag = base_col + 2 * rows + 2;   // row-allgather tags

  auto chunk_lo = [n, cols](int c) {
    return n * static_cast<std::size_t>(c) / cols;
  };

  // Row chunk c is split into `rows` segments, one per chunk of the column
  // allreduce that reduces it.
  std::vector<int> all;
  for (const auto& row : grid) all.insert(all.end(), row.begin(), row.end());
  Witnesses witnesses(mpi.num_ranks(), cols * rows, std::move(all));

  // Phase 3: row allgather ops (positions activated as columns finish).
  std::deque<RingOp> row_ag;
  for (int r = 0; r < rows; ++r)
    row_ag.emplace_back(mpi, RingOp::Kind::kAllGather, grid[r], &witnesses,
                        0, n, 0, rows, base_ag);

  // Phase 2: one column allreduce per column c, operating on the chunk that
  // column owns after the row reduce-scatter (chunk (c + 1) mod cols).
  std::deque<RingOp> col_ar;
  for (int c = 0; c < cols; ++c) {
    int chunk = mod(c + 1, cols);
    std::vector<int> col_ring(rows);
    for (int r = 0; r < rows; ++r) col_ring[r] = grid[r][c];
    col_ar.emplace_back(mpi, RingOp::Kind::kAllReduce, std::move(col_ring),
                        &witnesses, chunk_lo(chunk), chunk_lo(chunk + 1),
                        chunk * rows, 1, base_col,
                        [&row_ag, c](int row_pos) {
                          row_ag[row_pos].activate(c);
                        });
  }

  // Phase 1: row reduce-scatter; each rank joins its column when done.
  std::deque<RingOp> row_rs;
  for (int r = 0; r < rows; ++r) {
    row_rs.emplace_back(mpi, RingOp::Kind::kReduceScatter, grid[r],
                        &witnesses, 0, n, 0, rows, 0,
                        [&col_ar, r](int pos) { col_ar[pos].activate(r); });
    row_rs.back().activate_all();
  }
  return witnesses.run(mpi, ok);
}

picoseconds run_alltoall(sim::MiniMpi& mpi, const std::vector<int>& ranks,
                         int words, bool* ok) {
  const int p = static_cast<int>(ranks.size());
  // What the receive handlers check and count; owned by this call (a
  // handler holds its address and the sender's rank).
  struct Check {
    std::uint64_t bytes;
    std::uint64_t verified = 0;
  } check{sizeof(float) * static_cast<std::uint64_t>(words)};
  for (int j = 0; j < p; ++j)
    for (int r = 1; r < p; ++r) {
      mpi.send(ranks[j], ranks[(j + r) % p], r, check.bytes,
               Witness::of(ranks[j]));
      const int from = ranks[mod(j - r, p)];
      mpi.recv(ranks[j], from, r,
               [c = &check, from](std::uint64_t bytes, Witness got) {
                 c->verified += bytes == c->bytes && got == Witness::of(from);
               });
    }
  const picoseconds end = mpi.run();
  if (ok)
    *ok = check.verified == static_cast<std::uint64_t>(p) * (p - 1);
  return end;
}

}  // namespace hxmesh::collectives
