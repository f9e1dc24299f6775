// Process-wide named counters: the one telemetry path. A bump site owns
// its name (a namespace-scope Counter, registered at construction) and a
// bump is one relaxed atomic add. A shard child ships the delta of its
// run inside its manifest, and the orchestrator folds every received map
// into its own registry, so one report line shows fleet totals.
#pragma once

/// \file
/// \brief Counter — process-wide named counters, with snapshot, delta,
/// fold and JSON render/parse of the snapshot map.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

namespace hxmesh {

struct JsonValue;

/// \brief Handle of one registered counter; handles sharing a name share
/// one value.
class Counter {
 public:
  explicit Counter(const std::string& name);

  void add(std::uint64_t n = 1) {
    value_->fetch_add(n, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>* value_;
};

namespace counters {

/// Counter values by name, sorted.
using Map = std::map<std::string, std::uint64_t>;

/// \brief Every registered counter with its current value.
Map snapshot();

/// \brief after - before for every name of `after` (0 where `before`
/// lacks the name).
Map delta(const Map& before, const Map& after);

/// \brief Adds `received` into this process's registry, registering
/// names it does not know yet.
void fold(const Map& received);

/// \brief `{"name":value,...}` in name order.
std::string to_json(const Map& map);

/// \brief Inverse of to_json over a parsed document.
/// \throws std::invalid_argument unless `doc` is an object whose values
/// are all non-negative integers.
Map from_json(const JsonValue& doc);

}  // namespace counters

}  // namespace hxmesh
