// Discrete-event scheduler: a time-ordered queue of typed events with a
// deterministic FIFO tie-break for simultaneous events.
//
// Events are a tagged union (kind + three packed 32-bit payload words), so
// scheduling allocates nothing per event: the queue stores trivially
// copyable 32-byte structs. The owner (PacketSim) pops events and
// dispatches on the kind with a switch; arbitrary user callbacks go
// through a side table owned by the dispatcher (see
// PacketSim::schedule_in), keeping std::function off the per-packet path.
//
// The structure is a calendar queue (Brown 1988): a power-of-two array of
// time buckets of power-of-two width, so schedule() is O(1) (shift, mask,
// append) and pop() takes the next entry of one bucket. Pops drain the
// current bucket in sorted (time, seq) order from a head index: the
// bucket is sorted once when pop() reaches it, and later pushes into it
// insert from the back. Sorting matters because the simulator schedules
// bursts of events at one picosecond (synchronized ring steps,
// zero-delay receives): a burst shares one bucket whatever its width, and
// rescanning that bucket for its minimum on every pop made a burst
// quadratic. A burst arrives in seq order, so the sort finds it already
// sorted, and a same-time push carries the largest seq yet, so it appends
// without moving anything. Events beyond the current calendar year wait in
// an overflow list and are migrated when the year advances; bucket count
// and width adapt to the pending-event density on amortized-O(1)
// rebuilds. Pop order is exactly ascending (time, seq) — the same total
// order a heap yields — because the current bucket's head is the global
// minimum: earlier buckets are empty, later buckets hold strictly later
// times, and overflow events lie beyond the year boundary.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/units.hpp"

namespace hxmesh::sim {

/// What a scheduled event means to the dispatcher. The queue itself never
/// interprets the kind — it only orders events.
enum class EventKind : std::uint8_t {
  kLinkFree,      ///< a: upstream NodeId whose out-link finished serializing
  kPacketArrive,  ///< a: packet id, b: LinkId the packet arrived over
  kCreditReturn,  ///< a: LinkId, b: VC, c: bytes credited back upstream
  kUserCallback,  ///< a: slot in the dispatcher's callback side table
};

/// One scheduled event: time + FIFO sequence + tagged payload. Trivially
/// copyable by design — the queue moves raw structs, never closures.
struct Event {
  picoseconds time = 0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kUserCallback;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;

  // (time, seq) as one 128-bit key: the lexicographic compare becomes a
  // single branchless cmp/sbb instead of a 50%-mispredicted time branch.
  unsigned __int128 key() const {
    return (static_cast<unsigned __int128>(time) << 64) | seq;
  }
  bool operator<(const Event& o) const { return key() < o.key(); }
  bool operator>(const Event& o) const { return o < *this; }
};

static_assert(std::is_trivially_copyable_v<Event>);

class EventQueue {
 public:
  /// Schedules an event at absolute time `when` (must be >= now()).
  void schedule(picoseconds when, EventKind kind, std::uint32_t a = 0,
                std::uint32_t b = 0, std::uint32_t c = 0) {
    assert(when >= now_ && "schedule: event in the past");
    push(Event{when, seq_++, kind, a, b, c});
  }

  /// Schedules an event `delay` after the current time.
  void schedule_in(picoseconds delay, EventKind kind, std::uint32_t a = 0,
                   std::uint32_t b = 0, std::uint32_t c = 0) {
    schedule(now_ + delay, kind, a, b, c);
  }

  picoseconds now() const { return now_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t events_processed() const { return processed_; }

  /// Removes and returns the earliest (time, then FIFO seq) event,
  /// advancing now() to its time. Calling pop() on an empty queue is
  /// undefined (check empty() first).
  Event pop() {
    assert(size_ > 0 && "pop: empty queue");
    for (;;) {
      const std::size_t nbuckets = mask_ + 1;
      while (cur_ < nbuckets) {
        // Dense occupancy counts make the empty-bucket walk scan 16
        // slots per cache line instead of one vector header each.
        if (occupancy_[cur_] == 0) {
          ++cur_;
          cur_sorted_ = false;
          continue;
        }
        // Every entry of this bucket precedes every other pending event,
        // so once sorted its head is the global minimum.
        std::vector<Event>& b = buckets_[cur_];
        if (!cur_sorted_) {
          if (!std::is_sorted(b.begin(), b.end()))
            std::sort(b.begin(), b.end());
          cur_sorted_ = true;
        }
        const Event e = b[head_++];
        if (head_ == b.size()) {
          b.clear();
          head_ = 0;
        }
        --occupancy_[cur_];
        --size_;
        now_ = e.time;
        ++processed_;
        if (size_ < nbuckets / 4 && nbuckets > kMinBuckets)
          rebuild(nbuckets / 2);
        return e;
      }
      // Calendar year exhausted: advance it (jumping over empty years
      // straight to the earliest overflow event) and migrate overflow
      // events that now fall inside the year.
      year_start_ += year_;
      cur_ = 0;
      cur_sorted_ = false;
      if (size_ == far_.size()) {
        assert(!far_.empty() && "pop: pending events lost");
        picoseconds mn = far_.front().time;
        for (const Event& e : far_) mn = mn < e.time ? mn : e.time;
        if (mn - year_start_ >= year_) year_start_ = mn / year_ * year_;
      }
      migrate_far();
    }
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;

  static int log2_ceil(std::uint64_t v) {
    int l = 0;
    while ((std::uint64_t{1} << l) < v) ++l;
    return l;
  }

  std::size_t slot_of(picoseconds t) const {
    // year_start_ is a multiple of year_, so masking the global bucket
    // number yields the in-year slot directly.
    return static_cast<std::size_t>(t >> width_log2_) & mask_;
  }

  void push(const Event& e) {
    if (buckets_.empty()) rebuild(kMinBuckets, e.time);
    if (e.time - year_start_ >= year_) {
      far_.push_back(e);
    } else {
      const std::size_t slot = slot_of(e.time);
      std::vector<Event>& b = buckets_[slot];
      b.push_back(e);
      if (slot == cur_ && cur_sorted_) {
        // Insertion step from the back. `e` has the largest seq yet, so
        // it goes after every entry of equal time, and it never passes
        // an already popped entry (none is later than now).
        std::size_t i = b.size() - 1;
        for (; i > 0 && b[i - 1].time > e.time; --i) b[i] = b[i - 1];
        b[i] = e;
      }
      ++occupancy_[slot];
    }
    ++size_;
    if (size_ > 2 * (mask_ + 1)) rebuild(2 * (mask_ + 1));
  }

  /// Re-buckets every pending event into `nbuckets` buckets whose width
  /// tracks the current pending-time distribution (amortized O(1) per
  /// event: the queue grows or shrinks by a constant factor between
  /// rebuilds). `time_hint` seeds the width when nothing is pending yet
  /// (the lazy init from the first push).
  void rebuild(std::size_t nbuckets, picoseconds time_hint = 0) {
    scratch_.clear();
    scratch_.reserve(size_);
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      std::vector<Event>& b = buckets_[i];
      // Only the current bucket has popped entries.
      const std::size_t first = i == cur_ ? head_ : 0;
      scratch_.insert(scratch_.end(),
                      b.begin() + static_cast<std::ptrdiff_t>(first), b.end());
      b.clear();
    }
    head_ = 0;
    cur_sorted_ = false;
    scratch_.insert(scratch_.end(), far_.begin(), far_.end());
    far_.clear();

    buckets_.resize(nbuckets);
    occupancy_.assign(nbuckets, 0);
    mask_ = nbuckets - 1;
    // Size the window from the MEDIAN pending offset, recomputed from
    // what is actually pending (2x the median equals the full span for a
    // uniform distribution). A robust estimator matters: sizing from the
    // maximum — or even the mean — lets a lone far-future event (a long
    // compute phase among dense packet events) dictate the bucket width,
    // piling every near-term event into one bucket and making pop() scan
    // linearly until the stray event fires. Outliers beyond the median-
    // sized year simply wait in the overflow list instead.
    std::uint64_t median_off;
    if (scratch_.empty()) {
      median_off = time_hint > now_ ? time_hint - now_ : 1;
    } else {
      auto mid = scratch_.begin() +
                 static_cast<std::ptrdiff_t>(scratch_.size() / 2);
      std::nth_element(scratch_.begin(), mid, scratch_.end(),
                       [](const Event& x, const Event& y) {
                         return x.time < y.time;
                       });
      median_off = mid->time - now_;
    }
    const std::uint64_t span = std::max<std::uint64_t>(2 * median_off, 1);
    // Year = nbuckets * width >= 2 * span: the live window fills at most
    // half the calendar (cheap wraps) while buckets stay short — the
    // grow threshold keeps average occupancy near two events per bucket.
    width_log2_ = log2_ceil(std::max<std::uint64_t>(
        (2 * span + nbuckets - 1) / nbuckets, 1));
    year_ = static_cast<std::uint64_t>(nbuckets) << width_log2_;
    year_start_ = now_ / year_ * year_;
    cur_ = slot_of(now_);
    for (const Event& e : scratch_) {
      if (e.time - year_start_ >= year_) {
        far_.push_back(e);
      } else {
        const std::size_t slot = slot_of(e.time);
        buckets_[slot].push_back(e);
        ++occupancy_[slot];
      }
    }
  }

  void migrate_far() {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < far_.size(); ++i) {
      if (far_[i].time - year_start_ < year_) {
        const std::size_t slot = slot_of(far_[i].time);
        buckets_[slot].push_back(far_[i]);
        ++occupancy_[slot];
      } else {
        far_[keep++] = far_[i];
      }
    }
    far_.resize(keep);
  }

  std::vector<std::vector<Event>> buckets_;
  std::vector<std::uint32_t> occupancy_;  // per-bucket event counts
  std::vector<Event> far_;      // events beyond the current calendar year
  std::vector<Event> scratch_;  // rebuild staging, reused across rebuilds
  std::size_t size_ = 0;
  std::size_t mask_ = 0;        // bucket count - 1 (power of two)
  int width_log2_ = 0;          // log2 of bucket width in picoseconds
  std::uint64_t year_ = 0;      // bucket count * width
  std::size_t cur_ = 0;         // current in-year slot
  std::size_t head_ = 0;        // first unpopped entry of bucket cur_
  bool cur_sorted_ = false;     // bucket cur_ is sorted
  picoseconds year_start_ = 0;  // multiple of year_
  picoseconds now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace hxmesh::sim
