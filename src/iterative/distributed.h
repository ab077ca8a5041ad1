// Iterative reconstruction (SART / OS-SART / MLEM) on the execution engine
// — the second workload of the engine layer, next to FDK, and the only
// implementation of the Section 6.2 solver family. ART is its OS-SART case
// with one view per subset (subsets = Np); a single-node solve is a
// one-rank world.
//
// Decomposition: views are sharded across ranks by the SAME column/row
// projection assignment the FDK plan uses (DecompositionPlan::
// projection_shard), while the volume estimate is replicated on every rank.
// Each sweep, a rank forward-projects its owned views, back-projects each
// correction as it is formed (one view per kernel call) into a local
// kZMajor volume in ascending view order, and the
// partial corrections are summed in place by Comm::allreduce (reduce-scatter
// + allgather, one volume all-reduce per subset). The residual norm is
// all-reduced once per iteration by the same call, so the early-stop
// decision is rank-consistent by construction — every rank compares the
// identical reduced value.
//
// Parity contract (tests/test_distributed_iterative.cpp): on one rank the
// owned-view order and every update expression match the serial textbook
// solvers of tests/iterative_oracle.h exactly, so P = 1 results are BITWISE
// identical to them. On P > 1 ranks the all-reduce folds rank partials in a
// fixed deterministic order that differs from the sequential view order, so
// results are deterministic but only tolerance-equal to the serial ones.
// The B operator is FDK's Algorithm-4 kernel run unweighted (iterative.h)
// on the resolved SIMD column backend; the oracle runs the same kernel on
// the scalar backend, which every vector backend matches bitwise, so the
// contract holds on any CPU. B's volumes (B*1 and the per-subset
// corrections) are kZMajor, the kernel's layout; the estimate is kXMajor,
// the projector's and the store's, and the SART/MLEM updates read the
// former and write the latter voxel by voxel.
//
// Store: the partition FDK uses (Section 4.1.3). The column-0 rank of each
// plan row writes that row's symmetric slab pair, 2*slab_h slices of its
// replicated estimate, through engine::VolumeWriterSet, so
// JobSpec::compress_store/store_bits apply and the per-root byte/PSNR
// accounting merges into IterStats::store.
#pragma once

#include <string>
#include <vector>

#include "common/timer.h"
#include "geometry/cbct.h"
#include "ifdk/job.h"
#include "ifdk/plan.h"
#include "perfmodel/model.h"
#include "pfs/async_writer.h"
#include "pfs/pfs.h"

namespace ifdk::iterative {

/// Result of one distributed iterative reconstruction.
struct IterStats {
  /// The resolved rank grid (the plan's; sharding uses its view shards).
  perfmodel::GridShape grid;
  /// Solver family name ("sart" / "os-sart" / "mlem").
  std::string algorithm;
  /// Iterations actually run (< IterParams::iterations on early stop).
  int iterations_run = 0;
  /// All-reduced residual RMSE per iteration, measured from the forward
  /// projections of that iteration's sweep (i.e. the iterate each subset
  /// sweep started from). Identical on every rank.
  std::vector<double> residual_rmse;
  /// Per-stage wall seconds, per-stage maximum across ranks
  /// (load / normalize / forward / backproject / allreduce / update / store).
  StageTimer wall;
  /// End-to-end wall seconds (slowest rank).
  double wall_total = 0;
  /// iterations_run / wall_total (0 when wall_total is 0).
  double iterations_per_second = 0;
  /// Store accounting of the volume, merged across the row roots (raw vs
  /// stored bytes; the quantization PSNR for JobSpec::compress_store).
  pfs::StreamStats store;
};

/// Runs one iterative job (`job.workload` must be kIterative) on
/// `options.ranks` engine ranks: projections are read from
/// `<job.input_prefix><s>`, and the converged volume's slices are written
/// to `<job.output_prefix><k>` by the row roots, each storing its row's
/// slab pair (raw, or compressed when job.compress_store is set). The
/// job's geometry override (else `geometry`) is decomposed by the same
/// DecompositionPlan the FDK runtime uses; per-iteration collective traffic
/// is asserted against the plan's iter_* tag budgets. Throws ConfigError on
/// invalid options/job, DeviceOutOfMemory when the replicated-volume
/// working set exceeds the device, and IoError on storage failures (after
/// the world joined, with the first failing root's error for a failed
/// store).
IterStats run_iterative(const geo::CbctGeometry& geometry,
                        pfs::ParallelFileSystem& fs,
                        const IfdkOptions& options, const JobSpec& job);

}  // namespace ifdk::iterative
