#include "flow/patterns.hpp"

#include <cctype>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/parse_num.hpp"

namespace hxmesh::flow {

std::vector<Flow> shift_pattern(int n, int shift) {
  if (n <= 0) return {};
  // Normalize once so negative and > n shifts index endpoints in [0, n)
  // instead of producing negative destinations.
  shift %= n;
  if (shift < 0) shift += n;
  std::vector<Flow> flows;
  flows.reserve(n);
  for (int j = 0; j < n; ++j) flows.push_back({j, (j + shift) % n, 0.0});
  return flows;
}

std::vector<Flow> random_permutation(int n, Rng& rng) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm);
  // Repair fixed points: rotate each with its successor in the permutation
  // array (the successor cannot also be a fixed point afterwards).
  for (int i = 0; i < n; ++i)
    if (perm[i] == i) std::swap(perm[i], perm[(i + 1) % n]);
  std::vector<Flow> flows;
  flows.reserve(n);
  for (int i = 0; i < n; ++i) flows.push_back({i, perm[i], 0.0});
  return flows;
}

std::vector<Flow> ring_flows(const std::vector<int>& ring,
                             bool bidirectional) {
  std::vector<Flow> flows;
  const int n = static_cast<int>(ring.size());
  flows.reserve(bidirectional ? 2 * n : n);
  for (int i = 0; i < n; ++i) {
    flows.push_back({ring[i], ring[(i + 1) % n], 0.0});
    if (bidirectional) flows.push_back({ring[(i + 1) % n], ring[i], 0.0});
  }
  return flows;
}

std::string pattern_name(const TrafficSpec& spec) {
  switch (spec.kind) {
    case PatternKind::kShift:
      return "shift:" + std::to_string(spec.shift);
    case PatternKind::kPermutation:
      return "perm";
    case PatternKind::kRing:
      return spec.bidirectional ? "ring" : "ring:uni";
    case PatternKind::kAlltoall:
      return "alltoall";
    case PatternKind::kAllreduce:
      return spec.torus_algorithm ? "allreduce:torus" : "allreduce";
  }
  return "?";
}

namespace {

[[noreturn]] void bad_pattern(const std::string& text) {
  throw std::invalid_argument("parse_traffic: bad pattern '" + text + "'");
}

[[noreturn]] void bad_token(const std::string& text, const std::string& token,
                            const std::string& why) {
  throw std::invalid_argument("parse_traffic: bad pattern '" + text + "': " +
                              why + " '" + token + "'");
}

// Full-token numeric parses; anything else (junk, overflow) rejects the
// pattern with the documented invalid_argument.
int parse_int_token(const std::string& text, const std::string& token) {
  std::size_t pos = 0;
  int v = 0;
  try {
    v = std::stoi(token, &pos);
  } catch (const std::logic_error&) {
    bad_pattern(text);
  }
  if (pos != token.size()) bad_pattern(text);
  return v;
}

std::uint64_t parse_u64_token(const std::string& text,
                              const std::string& token) {
  const std::optional<std::uint64_t> v = parse_u64_strict(token);
  if (!v) bad_pattern(text);
  return *v;
}

// Parses "<int>[KiB|MiB|GiB|KB|MB|GB]" into bytes. Rejects negative
// values and magnitudes that overflow under the suffix multiply.
std::uint64_t parse_size_token(const std::string& text,
                               const std::string& token) {
  std::size_t pos = 0;
  while (pos < token.size() &&
         std::isdigit(static_cast<unsigned char>(token[pos])))
    ++pos;
  const std::optional<std::uint64_t> parsed =
      parse_u64_strict(token.substr(0, pos));
  if (!parsed) bad_token(text, token, "bad size");
  const std::uint64_t v = *parsed;
  const std::string suffix = token.substr(pos);
  std::uint64_t unit = 1;
  if (suffix == "KiB")
    unit = KiB;
  else if (suffix == "MiB")
    unit = MiB;
  else if (suffix == "GiB")
    unit = GiB;
  else if (suffix == "KB")
    unit = KB;
  else if (suffix == "MB")
    unit = MB;
  else if (suffix == "GB")
    unit = GB;
  else if (!suffix.empty())
    bad_token(text, token, "bad size suffix in");
  if (v > UINT64_MAX / unit) bad_token(text, token, "size overflows in");
  return v * unit;
}

// Renders bytes with the largest exact binary suffix ("1MiB", "262144").
std::string format_size(std::uint64_t bytes) {
  if (bytes != 0 && bytes % GiB == 0) return std::to_string(bytes / GiB) + "GiB";
  if (bytes != 0 && bytes % MiB == 0) return std::to_string(bytes / MiB) + "MiB";
  if (bytes != 0 && bytes % KiB == 0) return std::to_string(bytes / KiB) + "KiB";
  return std::to_string(bytes);
}

}  // namespace

std::string pattern_spec(const TrafficSpec& spec) {
  const TrafficSpec defaults;
  std::string out = pattern_name(spec);
  if (spec.kind == PatternKind::kRing && !spec.ranks.empty()) {
    out += ":ranks=";
    for (std::size_t i = 0; i < spec.ranks.size(); ++i)
      out += (i ? "," : "") + std::to_string(spec.ranks[i]);
  }
  if (spec.kind == PatternKind::kAlltoall && spec.samples != defaults.samples)
    out += ":samples=" + std::to_string(spec.samples);
  if (spec.route != defaults.route)
    out += std::string(":route=") + topo::route_mode_name(spec.route);
  if (spec.seed != defaults.seed) out += ":seed=" + std::to_string(spec.seed);
  if (spec.message_bytes != defaults.message_bytes)
    out += ":msg=" + format_size(spec.message_bytes);
  return out;
}

TrafficSpec parse_traffic(const std::string& text) {
  auto tokens = split(text, ':');
  const std::string head = tokens.front();
  tokens.erase(tokens.begin());

  TrafficSpec spec;
  bool positional_ok = true;  // only the first token may be positional
  if (head == "shift")
    spec.kind = PatternKind::kShift;
  else if (head == "perm" || head == "permutation")
    spec.kind = PatternKind::kPermutation;
  else if (head == "ring")
    spec.kind = PatternKind::kRing;
  else if (head == "alltoall")
    spec.kind = PatternKind::kAlltoall;
  else if (head == "allreduce")
    spec.kind = PatternKind::kAllreduce;
  else
    throw std::invalid_argument("parse_traffic: unknown pattern '" + text +
                                "' (heads: shift, perm, ring, alltoall, "
                                "allreduce)");

  for (const std::string& token : tokens) {
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "msg") {
        spec.message_bytes = parse_size_token(text, value);
      } else if (key == "route") {
        try {
          spec.route = topo::parse_route_mode(value);
        } catch (const std::invalid_argument&) {
          bad_token(text, token, "bad route mode");
        }
      } else if (key == "seed") {
        spec.seed = parse_u64_token(text, value);
      } else if (key == "samples") {
        if (spec.kind != PatternKind::kAlltoall)
          bad_token(text, token, "samples= only applies to alltoall, got");
        spec.samples = parse_int_token(text, value);
      } else if (key == "ranks") {
        if (spec.kind != PatternKind::kRing)
          bad_token(text, token, "ranks= only applies to ring, got");
        spec.ranks.clear();
        for (const std::string& r : split(value, ','))
          spec.ranks.push_back(parse_int_token(text, r));
      } else {
        bad_token(text, token, "unknown option");
      }
      positional_ok = false;
      continue;
    }
    // Positional argument or flag token.
    if (token == "uni" && spec.kind == PatternKind::kRing) {
      spec.bidirectional = false;
    } else if (token == "torus" && spec.kind == PatternKind::kAllreduce) {
      spec.torus_algorithm = true;
    } else if (positional_ok && spec.kind == PatternKind::kShift) {
      spec.shift = parse_int_token(text, token);
    } else if (positional_ok && spec.kind == PatternKind::kPermutation) {
      spec.seed = parse_u64_token(text, token);
    } else if (positional_ok && spec.kind == PatternKind::kAlltoall) {
      spec.samples = parse_int_token(text, token);
    } else {
      bad_token(text, token, "unexpected token");
    }
    positional_ok = false;
  }
  return spec;
}

std::vector<std::string> traffic_grammar() {
  return {
      "shift[:<k>]            rank j -> (j + k) % n (default k=1)",
      "perm[:<seed>]          fixed-point-free random permutation",
      "ring[:uni][:ranks=a,b] cyclic neighbor traffic (bidirectional "
      "unless :uni)",
      "alltoall[:<samples>]   balanced-shift alltoall ensemble",
      "allreduce[:torus]      ring allreduce (or the 2D-torus algorithm)",
      "options (any head):    msg=<bytes|KiB|MiB|GiB|KB|MB|GB>, seed=<n>,",
      "                       route=<minimal|valiant|ugal>",
  };
}

std::vector<Flow> make_flows(const TrafficSpec& spec, int n) {
  switch (spec.kind) {
    case PatternKind::kShift:
      return shift_pattern(n, spec.shift);
    case PatternKind::kPermutation: {
      Rng rng(spec.seed);
      return random_permutation(n, rng);
    }
    case PatternKind::kRing: {
      if (!spec.ranks.empty()) {
        for (int r : spec.ranks)
          if (r < 0 || r >= n)
            throw std::invalid_argument(
                "make_flows: ring rank " + std::to_string(r) +
                " out of range for " + std::to_string(n) + " endpoints");
        return ring_flows(spec.ranks, spec.bidirectional);
      }
      std::vector<int> ring(n);
      std::iota(ring.begin(), ring.end(), 0);
      return ring_flows(ring, spec.bidirectional);
    }
    case PatternKind::kAlltoall:
    case PatternKind::kAllreduce:
      throw std::invalid_argument(
          "make_flows: collective pattern has no single flow list");
  }
  return {};
}

}  // namespace hxmesh::flow
