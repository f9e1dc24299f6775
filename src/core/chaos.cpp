#include "core/chaos.hpp"

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/hash.hpp"
#include "core/parse_num.hpp"

namespace hxmesh {

namespace {

[[noreturn]] void bad_spec(const std::string& text, const std::string& why) {
  throw std::invalid_argument("HXMESH_CHAOS: bad spec '" + text + "': " + why);
}

double parse_probability(const std::string& spec, const std::string& token) {
  if (token.empty()) bad_spec(spec, "empty probability");
  char* end = nullptr;
  const double p = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size())
    bad_spec(spec, "bad probability '" + token + "'");
  if (!(p >= 0.0 && p <= 1.0))
    bad_spec(spec, "probability '" + token + "' not in [0, 1]");
  return p;
}

std::uint64_t parse_seed(const std::string& spec, const std::string& token) {
  const std::string digits = token.substr(5);  // past "seed="
  if (digits.empty()) bad_spec(spec, "empty seed");
  const std::optional<std::uint64_t> v = parse_u64_strict(digits);
  if (!v) bad_spec(spec, "bad seed '" + digits + "'");
  return *v;
}

// Uniform value in [0, 1) from the hash of (seed, tag, shard, attempt):
// the top 53 bits of the digest scaled by 2^-53, so every representable
// probability threshold behaves as expected.
double chaos_uniform(const ChaosSpec& spec, const char* tag, unsigned shard,
                     int attempt) {
  Fnv1a hash;
  hash.update(spec.seed)
      .update(std::string_view(tag))
      .update(static_cast<std::uint64_t>(shard))
      .update(attempt);
  return static_cast<double>(hash.digest() >> 11) * 0x1.0p-53;
}

}  // namespace

ChaosSpec parse_chaos(const std::string& text) {
  ChaosSpec spec;
  if (text.empty()) return spec;
  for (const std::string& group : split(text, ',')) {
    const std::vector<std::string> tokens = split(group, ':');
    std::size_t next = 0;
    if (tokens[0] == "kill" || tokens[0] == "hang") {
      if (tokens.size() < 2) bad_spec(text, tokens[0] + " needs a probability");
      const double p = parse_probability(text, tokens[1]);
      (tokens[0] == "kill" ? spec.kill_p : spec.hang_p) = p;
      next = 2;
    }
    for (; next < tokens.size(); ++next) {
      if (tokens[next].rfind("seed=", 0) == 0)
        spec.seed = parse_seed(text, tokens[next]);
      else
        bad_spec(text, "unknown token '" + tokens[next] + "'");
    }
  }
  return spec;
}

const char* chaos_action_name(ChaosAction action) {
  switch (action) {
    case ChaosAction::kNone: return "none";
    case ChaosAction::kKill: return "kill";
    case ChaosAction::kHang: return "hang";
  }
  return "unknown";
}

ChaosAction chaos_action(const ChaosSpec& spec, unsigned shard, int attempt) {
  if (spec.kill_p > 0.0 &&
      chaos_uniform(spec, "kill", shard, attempt) < spec.kill_p)
    return ChaosAction::kKill;
  if (spec.hang_p > 0.0 &&
      chaos_uniform(spec, "hang", shard, attempt) < spec.hang_p)
    return ChaosAction::kHang;
  return ChaosAction::kNone;
}

}  // namespace hxmesh

