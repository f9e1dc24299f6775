#include "topo/zoo.hpp"

namespace hxmesh::topo {

std::vector<PaperTopology> paper_topology_list() {
  return {PaperTopology::kFatTree,   PaperTopology::kFatTree50,
          PaperTopology::kFatTree75, PaperTopology::kDragonfly,
          PaperTopology::kHyperX,    PaperTopology::kHx2Mesh,
          PaperTopology::kHx4Mesh,   PaperTopology::kTorus};
}

std::string paper_topology_label(PaperTopology which) {
  switch (which) {
    case PaperTopology::kFatTree: return "nonbl. FT";
    case PaperTopology::kFatTree50: return "50% tap. FT";
    case PaperTopology::kFatTree75: return "75% tap. FT";
    case PaperTopology::kDragonfly: return "Dragonfly";
    case PaperTopology::kHyperX: return "2D HyperX";
    case PaperTopology::kHx2Mesh: return "Hx2Mesh";
    case PaperTopology::kHx4Mesh: return "Hx4Mesh";
    case PaperTopology::kTorus: return "2D torus";
  }
  return "?";
}

}  // namespace hxmesh::topo
