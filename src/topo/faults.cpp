#include "topo/faults.hpp"

#include <cstdio>
#include <optional>
#include <vector>

#include "core/parse_num.hpp"

namespace hxmesh::topo {

namespace {

constexpr const char* kLinksHead = "faults=links";

[[noreturn]] void bad_faults(const std::string& text, const std::string& why) {
  throw std::invalid_argument("FaultSpec: bad spec '" + text + "': " + why);
}

// %g gives the shortest exact-round-trip form for the fractions the sweeps
// use (0.01, 0.02, 0.05); 17 significant digits would also round-trip but
// would make cache keys and CLI output unreadable.
std::string format_fraction(double p) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", p);
  return buf;
}

}  // namespace

std::string FaultSpec::spec() const {
  if (mode == Mode::kNone) return "";
  std::string out = kLinksHead;
  out += ':';
  out += mode == Mode::kFraction ? format_fraction(fraction)
                                 : std::to_string(count);
  if (seed != FaultSpec{}.seed) out += ":seed=" + std::to_string(seed);
  return out;
}

FaultSpec FaultSpec::parse(const std::string& text) {
  auto tokens = split(text, ':');
  if (tokens.empty() || tokens[0] != kLinksHead)
    bad_faults(text, "expected '" + std::string(kLinksHead) + ":<p|n>'");
  if (tokens.size() < 2 || tokens[1].empty())
    bad_faults(text, "missing failure rate or count");

  FaultSpec out;
  const std::string& rate = tokens[1];
  const bool is_fraction =
      rate.find_first_of(".eE") != std::string::npos;
  if (is_fraction) {
    std::size_t pos = 0;
    double p = 0.0;
    try {
      p = std::stod(rate, &pos);
    } catch (const std::logic_error&) {
      bad_faults(text, "bad fraction '" + rate + "'");
    }
    if (pos != rate.size()) bad_faults(text, "bad fraction '" + rate + "'");
    if (p < 0.0 || p > 1.0)
      bad_faults(text, "fraction '" + rate + "' outside [0, 1]");
    out.mode = Mode::kFraction;
    out.fraction = p;
  } else {
    const std::optional<std::uint64_t> n = parse_u64_strict(rate);
    if (!n) bad_faults(text, "bad count '" + rate + "'");
    if (*n > 1u << 30) bad_faults(text, "count '" + rate + "' too large");
    out.mode = Mode::kCount;
    out.count = static_cast<int>(*n);
  }

  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("seed=", 0) == 0) {
      const std::optional<std::uint64_t> s =
          parse_u64_strict(token.substr(5));
      if (!s) bad_faults(text, "bad seed '" + token + "'");
      out.seed = *s;
    } else {
      bad_faults(text, "unknown option '" + token + "'");
    }
  }
  return out;
}

}  // namespace hxmesh::topo
