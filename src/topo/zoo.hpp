// The paper's reference machine configurations (Section III-D, Table II):
// a small cluster of ~1,000 accelerators and a large one of ~16,000, each
// built as eight networks: three fat-tree variants, Dragonfly, 2D HyperX,
// Hx2Mesh, Hx4Mesh, and a 2D torus. engine::paper_topology_spec names each
// one as a topology spec string; engine::make_topology builds it.
#pragma once

#include <string>
#include <vector>

namespace hxmesh::topo {

enum class ClusterSize { kSmall, kLarge };

/// Identifiers for the eight Table II networks, in row order.
enum class PaperTopology {
  kFatTree,          // nonblocking
  kFatTree50,        // 50% tapered
  kFatTree75,        // 75% tapered
  kDragonfly,
  kHyperX,           // 2D HyperX == Hx1Mesh
  kHx2Mesh,
  kHx4Mesh,
  kTorus,
};

/// All eight, in Table II row order.
std::vector<PaperTopology> paper_topology_list();

/// Table II row label, e.g. "nonbl. FT", "Hx2Mesh".
std::string paper_topology_label(PaperTopology which);

}  // namespace hxmesh::topo
