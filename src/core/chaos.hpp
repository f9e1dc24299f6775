// Deterministic fault injection for the sharded sweep orchestrator.
//
// `HXMESH_CHAOS=kill:<p>[:seed=S][,hang:<p>]` makes `hxmesh shard`
// workers self-SIGKILL or sleep forever with the given probabilities.
// Every decision is a pure function of (spec, shard, attempt) — no RNG
// state, no clock — so a test can precompute exactly which attempts die,
// which hang, and on which attempt each shard finally succeeds, and a CI
// soak with a fixed seed replays the identical fault schedule every run.
// This is how the retry/watchdog path stays testable: the chaos layer
// produces real dead processes and real hung processes, and the
// orchestrator must survive them while keeping merged rows byte-identical.
#pragma once

/// \file
/// \brief Deterministic chaos injection: parse `HXMESH_CHAOS` specs and
/// decide kill/hang per (shard, attempt) as a pure function.

#include <cstdint>
#include <string>

namespace hxmesh {

/// \brief Parsed `HXMESH_CHAOS` spec: independent fault-class
/// probabilities plus the seed that fixes the fault schedule. Both
/// classes execute inside `hxmesh shard` workers.
struct ChaosSpec {
  double kill_p = 0.0;    ///< P(self-SIGKILL) per (shard, attempt)
  double hang_p = 0.0;    ///< P(sleep forever) per (shard, attempt)
  std::uint64_t seed = 0; ///< schedule seed (seed=S in the spec)

  bool enabled() const { return kill_p > 0.0 || hang_p > 0.0; }
};

/// \brief Parses a chaos spec string: comma-separated groups, each
/// `kill:<p>`, `hang:<p>`, or `seed=<n>` (probabilities in [0, 1], the
/// seed a strict unsigned integer).
/// Examples: "kill:0.25", "kill:0.25:seed=7,hang:0.1".
/// \throws std::invalid_argument on malformed input (the CLI maps this to
/// exit code 2 — a permanent config error the orchestrator never retries).
ChaosSpec parse_chaos(const std::string& text);

/// \brief What the chaos layer injects for one (shard, attempt).
enum class ChaosAction {
  kNone,  ///< run normally
  kKill,  ///< raise(SIGKILL) before doing any work
  kHang,  ///< sleep forever (the watchdog's SIGTERM/SIGKILL reaps it)
};

/// \brief Stable name of a ChaosAction ("none", "kill", "hang").
const char* chaos_action_name(ChaosAction action);

/// \brief The injected action for `(shard, attempt)` under `spec`.
///
/// Pure: hashes (seed, tag, shard, attempt) to a uniform value in [0, 1)
/// and compares against the probabilities (kill is decided first; a cell
/// can never both kill and hang). Attempts are 1-based, matching
/// ShardRun::attempts. The same inputs always produce the same action, in
/// the worker that executes it and in the test that predicts it.
ChaosAction chaos_action(const ChaosSpec& spec, unsigned shard, int attempt);

}  // namespace hxmesh
