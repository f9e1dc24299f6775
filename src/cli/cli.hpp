// hxmesh CLI: the scriptable front-end over the factory + harness layer.
//
// Subcommands (see usage() in cli.cpp, or `hxmesh --help`):
//   run     one (topology, engine, pattern, seed) cell -> one JSON row
//   sweep   a full SweepConfig grid from repeated flags or a JSON file
//   ls      engines, topology families, pattern grammar
//   cache   result-cache stats / clear
//
// The entry point is run_cli(), separated from main() so tests drive the
// exact argv handling (exit codes, error messages) in-process.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace hxmesh::cli {

/// Executes one CLI invocation. `args` excludes argv[0]. Normal output
/// lands on `out`, diagnostics (usage errors, cache statistics) on `err`.
/// Exit codes: 0 success, 1 runtime failure, 2 usage / spec error.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace hxmesh::cli
