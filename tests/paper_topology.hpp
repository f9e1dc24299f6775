// Test helper: the Table II machines, built from their spec strings.
#pragma once

#include <memory>

#include "engine/factory.hpp"
#include "topo/zoo.hpp"

namespace hxmesh::test {

/// One of the eight Table II networks, built the way every sweep builds it.
inline std::unique_ptr<topo::Topology> paper_topology(topo::PaperTopology which,
                                                      topo::ClusterSize size) {
  return engine::make_topology(engine::paper_topology_spec(which, size));
}

}  // namespace hxmesh::test
