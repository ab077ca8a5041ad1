// The job-centric request type of the reconstruction service front door.
//
// A JobSpec describes ONE reconstruction request end to end: where its
// projections live, where its slices go, which geometry decomposes it,
// which workload reconstructs it (FDK or an iterative solver), and — for
// the multi-tenant scheduler (src/service) — who asked, how urgent it
// is, and by when it should be done. The same type is what run_streaming
// consumes per volume (a streamed 4D-CT frame IS a job with default
// scheduling fields), so the service, the streaming runtime, and the
// simulator all speak one request vocabulary.
#pragma once

#include <optional>
#include <string>

#include "geometry/cbct.h"
#include "iterative/params.h"

namespace ifdk {

/// Which reconstruction workload a job runs on the execution engine.
enum class WorkloadKind {
  kFdk,        ///< filtered back-projection (the streaming FDK pipeline)
  kIterative,  ///< SART / OS-SART / MLEM via iterative::run_iterative
};

/// One reconstruction request: a volume to reconstruct from staged
/// projections, plus the scheduling metadata the service front door orders
/// the queue by. Aggregate-initializable with the historical field order
/// `{input_prefix, output_prefix, geometry}`; the workload defaults to FDK
/// and the scheduling fields to a lowest-urgency anonymous job.
struct JobSpec {
  /// Projections are read from `<input_prefix><s>`, s in [0, Np).
  std::string input_prefix;
  /// Slices are written to `<output_prefix><k>`, k in [0, Nz).
  std::string output_prefix;
  /// Per-job geometry override; unset = the run/service default geometry.
  std::optional<geo::CbctGeometry> geometry = std::nullopt;

  // -- workload selector ----------------------------------------------------

  /// Which reconstruction algorithm family runs this job. FDK jobs batch
  /// through run_streaming; iterative jobs dispatch one at a time through
  /// iterative::run_iterative.
  WorkloadKind workload = WorkloadKind::kFdk;
  /// Solver parameters for kIterative jobs (ignored by FDK); validated as
  /// part of JobSpec::validate.
  iterative::IterParams iterative = {};

  // -- store options --------------------------------------------------------

  /// Store this job's slices as quantized+RLE CompressedVolume objects
  /// (the lossy postproc codec) instead of raw floats, for both workloads.
  /// Opt-in per job: the store shrinks by the achieved ratio at a bounded
  /// quantization error, and the PSNR and ratio are recorded in
  /// StreamingStats (FDK) or IterStats::store (iterative). Read the slices
  /// back with load_volume(..., compressed_store=true).
  bool compress_store = false;
  /// Quantization depth of the compressed store, 8..16 bits per voxel
  /// (only meaningful with compress_store=true).
  int store_bits = 12;

  // -- scheduling metadata (service layer; ignored by run_streaming) --------

  /// Who submitted the job; ServiceStats aggregates throughput per tenant.
  std::string tenant = "default";
  /// Dispatch priority: higher runs first. The scheduler never reorders
  /// across priority bands (a deadline cannot promote a low-priority job
  /// past a high-priority one — EDF applies within a band only).
  int priority = 0;
  /// Optional completion deadline in seconds from submit (the SLO the
  /// service predicts against via cluster::simulate_stream). Within one
  /// priority band, earlier deadlines dispatch first; unset sorts last.
  std::optional<double> deadline_s = std::nullopt;

  /// Validates the request shape: both prefixes must be non-empty, a
  /// per-job geometry, when set, must be self-consistent
  /// (geo::CbctGeometry::validate), a compressed store's quantization depth
  /// must be 8..16 bits, a deadline must not be NaN, and an iterative job's
  /// solver parameters must pass IterParams::validate. Throws ConfigError
  /// naming the offending field; when `volume_index >= 0` the message is
  /// prefixed with the offending volume ("volume 2: ..."), matching the
  /// plan layer's convention. Called by run_streaming per volume and by
  /// service::ReconService::submit before admission.
  void validate(int volume_index = -1) const;
};

}  // namespace ifdk
