// ReplicationBlockWorkspace: the per-worker arena of the VECTORIZED
// Monte Carlo hot path.
//
// Where ReplicationWorkspace steps one replication at a time, this arena
// advances a lane block of up to kReplicationLaneWidth replications of the
// same campaign cell in lockstep: one structure-of-arrays LaneStakeState
// (per-lane income columns over a shared frozen stake tree) driven by one
// counter-based PhiloxLanes generator.  Replication r is always lane r of
// the Philox keystream — never "lane l of block b" — so the block
// partition, the chunk boundaries, and the backend are all invisible in
// the output, exactly like thread chunking in the scalar engine.
//
// The arena is reused across lane blocks, chunks, and cells: LaneStakeState,
// PhiloxLanes and the per-lane carried wealth orders all recycle their
// buffers, so steady-state stepping performs ZERO heap allocations (pinned
// by bench/hotpath_bench.cpp's allocation counter).
//
// Threading: NOT thread-safe; every worker gets its own via
// ThreadLocalReplicationBlockWorkspace().

#ifndef FAIRCHAIN_CORE_REPLICATION_BLOCK_WORKSPACE_HPP_
#define FAIRCHAIN_CORE_REPLICATION_BLOCK_WORKSPACE_HPP_

#include <cstddef>
#include <vector>

#include "core/population.hpp"
#include "protocol/lane_state.hpp"
#include "support/philox.hpp"

namespace fairchain::core {

/// Lane-block width of the vectorized stepping path.  16 lanes fill two
/// AVX-512 / four AVX2 double vectors per column sweep while the lockstep
/// descent state (16 indices + 16 residuals) still fits comfortably in
/// registers and L1.  Campaign output does NOT depend on this value (lane
/// r's stream is derived from r alone); it only tunes throughput.
inline constexpr std::size_t kReplicationLaneWidth = 16;

/// Per-worker arena: lane-block game state + Philox lane generator +
/// measurement buffers, reused across lane blocks.
class ReplicationBlockWorkspace {
 public:
  ReplicationBlockWorkspace() = default;

  ReplicationBlockWorkspace(const ReplicationBlockWorkspace&) = delete;
  ReplicationBlockWorkspace& operator=(const ReplicationBlockWorkspace&) =
      delete;

  /// The lane-block state; Reset() it at every lane-block boundary.
  protocol::LaneStakeState& block() { return block_; }

  /// The lane generator; Reset(seed, first_lane, width) per lane block.
  PhiloxLanes& rng() { return rng_; }

  /// Wealth vector buffer for population-metric checkpoints.
  std::vector<double>* wealth_buffer() { return &wealth_; }

  /// Carried wealth orders for population-metric checkpoints; the
  /// stepping loop Binds it only for cells with population metrics on.
  PopulationOrders& population() { return population_; }

 private:
  protocol::LaneStakeState block_;
  PhiloxLanes rng_;
  std::vector<double> wealth_;
  PopulationOrders population_;
};

/// This thread's block workspace, default-constructed on first use — the
/// vectorized twin of ThreadLocalReplicationWorkspace().
ReplicationBlockWorkspace& ThreadLocalReplicationBlockWorkspace();

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_REPLICATION_BLOCK_WORKSPACE_HPP_
