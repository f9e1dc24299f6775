#include "sim/minimpi.hpp"

namespace hxmesh::sim {

void MiniMpi::send(int src, int dst, int tag, SharedPayload data) {
  auto bytes = static_cast<std::uint64_t>(data->size()) * sizeof(float);
  // The payload rides along with the message and is handed to the receiver
  // when the final packet arrives.
  sim_.send_message(src, dst, bytes,
                    [this, src, dst, tag, data = std::move(data)]() mutable {
                      deliver(dst, src, tag, std::move(data));
                    });
}

namespace {

// The oldest entry of `map` under `key`, or end().
template <class Map>
typename Map::iterator oldest(Map& map, const typename Map::key_type& key) {
  const auto it = map.lower_bound(key);
  return it != map.end() && it->first == key ? it : map.end();
}

}  // namespace

void MiniMpi::recv(int rank, int src, int tag, RecvHandler handler) {
  const Key key{rank, src, tag};
  const auto it = oldest(unexpected_, key);
  if (it != unexpected_.end()) {
    SharedPayload data = std::move(it->second);
    unexpected_.erase(it);
    // Fire "now" but from a fresh event, keeping callback discipline.
    sim_.schedule_in(0, [data = std::move(data),
                         handler = std::move(handler)] { handler(*data); });
    return;
  }
  pending_.emplace(key, std::move(handler));
}

void MiniMpi::deliver(int rank, int src, int tag, SharedPayload data) {
  const Key key{rank, src, tag};
  const auto it = oldest(pending_, key);
  if (it != pending_.end()) {
    const RecvHandler handler = std::move(it->second);
    pending_.erase(it);
    handler(*data);
    return;
  }
  unexpected_.emplace(key, std::move(data));
}

}  // namespace hxmesh::sim
