// Token helpers shared by every spec-string and config parser (patterns,
// topology and fault specs, CLI flags, JSON readers): strict
// unsigned-integer parsing and separator splitting.
//
// std::stoull is the wrong tool for untrusted tokens: it skips whitespace,
// accepts a minus sign (wrapping the value), and ignores trailing junk
// only when told to. This helper accepts digits-only full tokens and
// reports overflow, so all front-ends reject "-5" and "99999999999999999999"
// the same way.
#pragma once

#include <cctype>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hxmesh {

/// Full-token unsigned parse: digits only (no sign, no whitespace, no
/// trailing junk), overflow checked. nullopt on any violation.
inline std::optional<std::uint64_t> parse_u64_strict(const std::string& token) {
  if (token.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    const unsigned digit = static_cast<unsigned>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

/// Splits `text` at every `sep`, keeping empty parts: "a::b" gives
/// {"a", "", "b"}, a trailing separator gives a trailing "", and "" gives
/// {""}.
inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i)
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  return out;
}

}  // namespace hxmesh
