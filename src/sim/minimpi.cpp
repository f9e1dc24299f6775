#include "sim/minimpi.hpp"

#include <cassert>
#include <utility>

namespace hxmesh::sim {

Witness Witness::of(int rank) {
  // splitmix64's finalizer: distinct ranks get unrelated keys.
  std::uint64_t z = static_cast<std::uint32_t>(rank) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return {1, z ^ (z >> 31)};
}

std::uint32_t MiniMpi::new_envelope() {
  if (!free_envelopes_.empty()) {
    const std::uint32_t slot = free_envelopes_.back();
    free_envelopes_.pop_back();
    return slot;
  }
  envelopes_.emplace_back();
  return static_cast<std::uint32_t>(envelopes_.size() - 1);
}

void MiniMpi::free_envelope(std::uint32_t slot) {
  Envelope& e = envelopes_[slot];
  e.handler = nullptr;
  e.next = kNone;
  free_envelopes_.push_back(slot);
}

void MiniMpi::send(int src, int dst, int tag, std::uint64_t bytes,
                   Witness witness) {
  const std::uint32_t slot = new_envelope();
  Envelope& e = envelopes_[slot];
  e.rank = dst;
  e.src = src;
  e.tag = tag;
  e.bytes = bytes;
  e.witness = witness;
  // The message waits in the envelope and is handed to the receiver when
  // the final packet arrives.
  sim_.send_message(src, dst, bytes, [this, slot] { deliver(slot); });
}

void MiniMpi::recv(int rank, int src, int tag, RecvHandler handler) {
  const std::size_t b = probe(rank, src, tag);
  if (table_[b].head != kNone && !table_[b].receives) {
    const std::uint32_t slot = pop_oldest(b);
    envelopes_[slot].handler = std::move(handler);
    // Fire "now" but from a fresh event, keeping callback discipline.
    sim_.schedule_in(0, [this, slot] { fire(slot); });
    return;
  }
  const std::uint32_t slot = new_envelope();
  Envelope& e = envelopes_[slot];
  e.rank = rank;
  e.src = src;
  e.tag = tag;
  e.handler = std::move(handler);
  append(slot, /*receives=*/true);
}

void MiniMpi::fire(std::uint32_t slot) {
  // Take everything out first: the handler may send or recv, which may
  // reuse the slot or reallocate envelopes_.
  const RecvHandler handler = std::move(envelopes_[slot].handler);
  const std::uint64_t bytes = envelopes_[slot].bytes;
  const Witness witness = envelopes_[slot].witness;
  free_envelope(slot);
  handler(bytes, witness);
}

void MiniMpi::deliver(std::uint32_t slot) {
  const Envelope& e = envelopes_[slot];
  const std::size_t b = probe(e.rank, e.src, e.tag);
  if (table_[b].head != kNone && table_[b].receives) {
    const std::uint32_t recv_slot = pop_oldest(b);
    envelopes_[slot].handler = std::move(envelopes_[recv_slot].handler);
    free_envelope(recv_slot);
    fire(slot);
    return;
  }
  append(slot, /*receives=*/false);
}

std::size_t MiniMpi::home(int rank, int src, int tag) const {
  std::uint64_t h = static_cast<std::uint32_t>(rank);
  h = h * 0x9e3779b97f4a7c15ull ^ static_cast<std::uint32_t>(src);
  h = h * 0x9e3779b97f4a7c15ull ^ static_cast<std::uint32_t>(tag);
  h *= 0xff51afd7ed558ccdull;
  return static_cast<std::size_t>(h ^ (h >> 29)) & (table_.size() - 1);
}

std::size_t MiniMpi::probe(int rank, int src, int tag) const {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t b = home(rank, src, tag);; b = (b + 1) & mask) {
    const MatchQueue& q = table_[b];
    if (q.head == kNone ||
        (q.rank == rank && q.src == src && q.tag == tag))
      return b;
  }
}

void MiniMpi::append(std::uint32_t slot, bool receives) {
  if (2 * (table_used_ + 1) > table_.size()) {
    // Grow the table and re-insert every queue.
    std::vector<MatchQueue> old(2 * table_.size());
    old.swap(table_);
    for (const MatchQueue& q : old)
      if (q.head != kNone) table_[probe(q.rank, q.src, q.tag)] = q;
  }
  const Envelope& e = envelopes_[slot];
  MatchQueue& q = table_[probe(e.rank, e.src, e.tag)];
  if (q.head == kNone) {
    q = MatchQueue{e.rank, e.src, e.tag, slot, slot, receives};
    ++table_used_;
    return;
  }
  assert(q.receives == receives && "append: a queue holds one kind");
  envelopes_[q.tail].next = slot;
  q.tail = slot;
}

std::uint32_t MiniMpi::pop_oldest(std::size_t b) {
  MatchQueue& q = table_[b];
  const std::uint32_t slot = q.head;
  q.head = envelopes_[slot].next;
  envelopes_[slot].next = kNone;
  if (q.head == kNone) erase_bucket(b);
  return slot;
}

void MiniMpi::erase_bucket(std::size_t b) {
  // Backward-shift deletion: move each later entry of the probe run into
  // the hole unless its home lies cyclically in (hole, entry].
  const std::size_t mask = table_.size() - 1;
  for (std::size_t j = (b + 1) & mask; table_[j].head != kNone;
       j = (j + 1) & mask) {
    const std::size_t k = home(table_[j].rank, table_[j].src, table_[j].tag);
    if (((j - k) & mask) >= ((j - b) & mask)) {
      table_[b] = table_[j];
      b = j;
    }
  }
  table_[b].head = kNone;
  --table_used_;
}

}  // namespace hxmesh::sim
