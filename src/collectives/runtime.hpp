// Collective algorithms executed on the packet simulator via MiniMPI
// (Section V-A2). All operations work on real float buffers so tests can
// verify numerical correctness; completion times come from the simulator.
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
// Each run_* call owns the state its receive handlers point to (ring ops,
// chunk buffers, the alltoall's check) and runs `mpi` to completion
// before returning. A run that ends with messages undelivered (a
// deadlocked network) leaves receives posted that point at that state,
// so such an `mpi` must not send or run again.
#pragma once

#include <vector>

#include "sim/minimpi.hpp"

namespace hxmesh::collectives {

/// data[r] is rank r's contribution; on return every participating rank's
/// vector holds the elementwise sum over `ring`. Returns the simulated
/// completion time of the whole operation.
picoseconds run_allreduce_ring(sim::MiniMpi& mpi, const std::vector<int>& ring,
                               std::vector<std::vector<float>>& data);

/// Splits the buffer in half and runs one ring per direction.
picoseconds run_allreduce_bidir(sim::MiniMpi& mpi,
                                const std::vector<int>& ring,
                                std::vector<std::vector<float>>& data);

/// Two bidirectional rings over edge-disjoint cycles, a quarter of the data
/// each — uses all four HammingMesh ports at once (Appendix D).
picoseconds run_allreduce_two_rings(sim::MiniMpi& mpi,
                                    const std::vector<int>& red,
                                    const std::vector<int>& green,
                                    std::vector<std::vector<float>>& data);

/// 2D toroidal allreduce: reduce-scatter along rows, allreduce along
/// columns, allgather along rows. `grid[row][col]` are ranks; all rows have
/// equal length.
picoseconds run_allreduce_torus2d(sim::MiniMpi& mpi,
                                  const std::vector<std::vector<int>>& grid,
                                  std::vector<std::vector<float>>& data);

/// Balanced-shift alltoall among `ranks`: in round r, ranks[j] sends
/// `elems_per_pair` floats to ranks[(j+r) % n]. Returns completion time.
/// Each rank sends one block, shared by all its messages, whose floats all
/// equal rank + 1; each receiver checks its blocks against that value, and
/// `blocks_ok`, when given, is set to whether every block received held
/// its sender's value.
picoseconds run_alltoall(sim::MiniMpi& mpi, const std::vector<int>& ranks,
                         int elems_per_pair, bool* blocks_ok = nullptr);

}  // namespace hxmesh::collectives
