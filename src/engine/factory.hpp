// Factories: engines by name, topologies by spec string.
//
// This is what makes experiment configuration data instead of code: a
// harness sweep names its backends ("flow", "packet") and its machines
// ("hx2mesh:16x16", "fattree:1024:taper=0.5") as strings.
//
// Topology spec grammar (family, then ':'-separated arguments):
//   hxmesh:AxB:XxY[:taper=F]   a*b boards on an x*y grid (HammingMesh)
//   hx2mesh:XxY[:taper=F]      shorthand, 2x2 boards
//   hx4mesh:XxY[:taper=F]      shorthand, 4x4 boards
//   hyperx:XxY                 2D HyperX (the paper's Hx1Mesh equivalent)
//   fattree:N[:taper=F]        N endpoints, taper = up:down at the leaves
//   dragonfly:small|large      the paper's two design points
//   dragonfly:A:P:H:G          explicit a/p/h/g configuration
//   torus:XxY[:board=AxB]      2D torus, PCB traces inside each board
#pragma once

/// \file
/// \brief Factories: engines by name (`flow`, `packet`),
/// topologies by spec string (`hx2mesh:16x16`, `fattree:1024:taper=0.5`).
/// See topology_grammar() for the full spec-string grammar.

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "topo/zoo.hpp"

namespace hxmesh::engine {

/// Builds the engine named "flow" or "packet". Throws
/// std::invalid_argument, naming both, for any other name. `threads` is
/// the flow solver's pool width (FlowSolverConfig::threads: 0 = the
/// $HXMESH_THREADS / hardware default, 1 = serial); the packet engine
/// ignores it.
std::unique_ptr<SimEngine> make_engine(const std::string& name,
                                       const topo::Topology& topology,
                                       int threads = 0);

/// The engine names make_engine accepts, sorted.
std::vector<std::string> engine_names();

/// One human-readable grammar line per topology family (the CLI's `ls`);
/// kept next to the parser so the help cannot drift from what parses.
std::vector<std::string> topology_grammar();

/// Builds a topology from a spec string (grammar above). Throws
/// std::invalid_argument on parse errors with a message naming the spec.
std::unique_ptr<topo::Topology> make_topology(const std::string& spec);

/// Spec string of one of the eight Table II machines;
/// make_topology(paper_topology_spec(w, s)) builds it.
std::string paper_topology_spec(topo::PaperTopology which,
                                topo::ClusterSize size);

}  // namespace hxmesh::engine
