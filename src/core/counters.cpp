#include "core/counters.hpp"

#include <mutex>
#include <stdexcept>

#include "core/json_parse.hpp"

namespace hxmesh {

namespace {

struct Registry {
  std::mutex mutex;
  // Map nodes never move, so Counter handles may keep their addresses.
  std::map<std::string, std::atomic<std::uint64_t>> values;
};

// Constructed on first use (counters in other translation units register
// during static initialization) and never destroyed.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

std::atomic<std::uint64_t>& value(const std::string& name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  return r.values[name];
}

}  // namespace

Counter::Counter(const std::string& name) : value_(&value(name)) {}

namespace counters {

Map snapshot() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  Map out;
  for (const auto& [name, v] : r.values)
    out.emplace(name, v.load(std::memory_order_relaxed));
  return out;
}

Map delta(const Map& before, const Map& after) {
  Map out;
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    out.emplace(name, v - (it == before.end() ? 0 : it->second));
  }
  return out;
}

void fold(const Map& received) {
  for (const auto& [name, v] : received)
    value(name).fetch_add(v, std::memory_order_relaxed);
}

std::string to_json(const Map& map) {
  std::string out = "{";
  for (const auto& [name, v] : map)
    out += (out.size() > 1 ? ",\"" : "\"") + name + "\":" + std::to_string(v);
  return out + "}";
}

Map from_json(const JsonValue& doc) {
  if (!doc.is_object())
    throw std::invalid_argument("counters: not a JSON object");
  Map out;
  for (const auto& [name, v] : doc.object) out[name] = v.as_u64();
  return out;
}

}  // namespace counters

}  // namespace hxmesh
