// Collective algorithms executed on the packet simulator via MiniMPI
// (Section V-A2). Messages carry byte counts, which set the timing, and
// witnesses of who contributed (sim/minimpi.hpp), which the collectives
// verify; completion times come from the simulator.
//
// Algorithms:
//   - pipelined unidirectional ring allreduce      T ~ 2p*alpha + 2S*beta
//   - bidirectional ring (halves both ways)        T ~ 2p*alpha + S*beta
//   - two bidirectional rings on edge-disjoint     T ~ 2p*alpha + S/2*beta
//     Hamiltonian cycles (quarter of S each way)
//   - 2D torus: row reduce-scatter, column         T ~ 4sqrt(p)*alpha +
//     allreduce, row allgather                         S*beta*(1+2sqrt(p))/
//                                                      (4sqrt(p))
//   - balanced-shift alltoall (p-1 rounds)
//
// An allreduce buffer of `words` 4-byte words is cut into segments, the
// finest split any of its ring phases makes, and each rank keeps one
// witness per segment, starting as its own contribution. Reduce-scatter
// adds the witnesses it receives, and allgather copies them; a message
// spanning several segments carries their common witness, or a poisoned
// one if they differ. The verdict (`ok`) holds when every segment of every
// participating rank ends with the witness of all participants, which
// catches a missing, duplicated or stale contribution at any rank.
//
// Each run_* call owns the state its receive handlers point to (ring ops,
// witnesses, the alltoall's check) and runs `mpi` to completion before
// returning. A run that ends with messages undelivered (a deadlocked
// network) leaves receives posted that point at that state, so such an
// `mpi` must not send or run again.
#pragma once

#include <vector>

#include "sim/minimpi.hpp"

namespace hxmesh::collectives {

/// Ring allreduce of `words` words per rank over `ring`. Returns the
/// simulated completion time; `ok`, when given, is set to the verdict.
picoseconds run_allreduce_ring(sim::MiniMpi& mpi, const std::vector<int>& ring,
                               int words, bool* ok = nullptr);

/// Splits the buffer in half and runs one ring per direction.
picoseconds run_allreduce_bidir(sim::MiniMpi& mpi,
                                const std::vector<int>& ring, int words,
                                bool* ok = nullptr);

/// Two bidirectional rings over edge-disjoint cycles, a quarter of the data
/// each — uses all four HammingMesh ports at once (Appendix D).
picoseconds run_allreduce_two_rings(sim::MiniMpi& mpi,
                                    const std::vector<int>& red,
                                    const std::vector<int>& green, int words,
                                    bool* ok = nullptr);

/// 2D toroidal allreduce: reduce-scatter along rows, allreduce along
/// columns, allgather along rows. `grid[row][col]` are ranks; all rows have
/// equal length.
picoseconds run_allreduce_torus2d(sim::MiniMpi& mpi,
                                  const std::vector<std::vector<int>>& grid,
                                  int words, bool* ok = nullptr);

/// Held for sweepbench's sweep_trace, which still passes float buffers,
/// until the shadow tracer is retired: each reads only the length of the
/// first ring rank's buffer as `words`.
inline picoseconds run_allreduce_bidir(
    sim::MiniMpi& mpi, const std::vector<int>& ring,
    const std::vector<std::vector<float>>& data) {
  return run_allreduce_bidir(mpi, ring, static_cast<int>(data[ring[0]].size()));
}
inline picoseconds run_allreduce_two_rings(
    sim::MiniMpi& mpi, const std::vector<int>& red,
    const std::vector<int>& green,
    const std::vector<std::vector<float>>& data) {
  return run_allreduce_two_rings(mpi, red, green,
                                 static_cast<int>(data[red[0]].size()));
}

/// Balanced-shift alltoall among `ranks`: in round r, ranks[j] sends a
/// block of `words` words to ranks[(j+r) % n]. Returns completion time.
/// A block's witness is its sender's contribution; `ok`, when given, is
/// set to whether all n(n-1) blocks arrived with their sender's witness
/// and `words` words.
picoseconds run_alltoall(sim::MiniMpi& mpi, const std::vector<int>& ranks,
                         int words, bool* ok = nullptr);

}  // namespace hxmesh::collectives
