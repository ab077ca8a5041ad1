// Reconstruction-as-a-service: the multi-tenant job scheduler front door
// over the plan layer (src/ifdk/plan.h) and both engine workloads — the
// streaming FDK runtime (ifdk::run_streaming) and the distributed iterative
// solvers (iterative::run_iterative). JobSpec::workload selects which one
// runs a job; both kinds ride one queue, one dispatch order, and one
// prediction model (cluster::predict_queue_completion over the mixed
// queue).
//
// A ReconService owns ONE rank world worth of configuration and a background
// dispatch loop. Callers submit(JobSpec) — the job-centric request type the
// streaming runtime already consumes per volume — and get back a JobHandle
// that tracks the job through its lifecycle:
//
//   submit --> [admission] --> kQueued --> kAdmitted --> kRunning
//                  |                                        |
//             AdmissionError                        kStored / kFailed
//
// The scheduler makes four promises, each pinned by tests/test_service.cpp:
//
//   * Admission (§4.1.5 + tag budgets): a job whose DecompositionPlan cannot
//     fit the simulated device, or whose per-epoch collective tag budget
//     cannot fit inside mpi::Comm::kCollectiveTagWindow, is rejected AT
//     SUBMIT with a typed AdmissionError naming the offending numbers —
//     it never poisons the queue.
//   * Batching: queued jobs are ordered by priority (higher first), then
//     earliest deadline within a priority band (EDF; a deadline can never
//     promote a job past a higher band), then submit order. The dispatcher
//     hands the longest contiguous same-grid, same-workload prefix of that
//     order to one dispatch: FDK batches stream through run_streaming on
//     warm same-grid communicators, and grow only while the whole stream
//     still fits the device (ifdk::stream_fit_error — admission checks each
//     job alone); iterative batches execute job by job through
//     run_iterative, each behind its own failure barrier.
//   * Prediction: whenever the queue changes, the live queue's plan sequence
//     is fed through cluster::predict_queue_completion (the simulate_stream
//     recurrence) and every queued job's predicted completion is published
//     on its handle; ServiceStats aggregates per-tenant throughput, queue
//     latency, admission rejections, and the re-split count.
//   * Isolation: a PFS write failure fails only that job (the streaming
//     core's StreamingStats::volume_errors contract); every other job in
//     the batch — and behind it — still stores bit-exact output.
//
// The service executes jobs with exactly the run_streaming entry the rest of
// the repo uses, so a service run of N jobs is bitwise-identical to N
// sequential run_distributed calls with the same options and geometries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "cluster/simulator.h"
#include "common/error.h"
#include "common/timer.h"
#include "geometry/cbct.h"
#include "ifdk/job.h"
#include "ifdk/plan.h"
#include "perfmodel/model.h"
#include "pfs/pfs.h"

namespace ifdk::service {

/// Thrown by ReconService::submit when a job can never run on this
/// service's device/communicator budget: the decomposition does not fit the
/// simulated device (§4.1.5), or one collective epoch would reserve more
/// tags than the communicator window holds. The message names the numbers
/// (bytes needed vs available, tags needed vs window) so the caller can fix
/// the geometry or options instead of retrying.
class AdmissionError : public Error {
 public:
  /// Wraps the human-readable admission verdict.
  explicit AdmissionError(const std::string& what) : Error(what) {}
};

/// Lifecycle of a submitted job (see the header diagram). kQueued means
/// admitted and waiting; kAdmitted means selected into the batch being
/// dispatched; kRunning means its stream is executing; kStored / kFailed
/// are terminal.
enum class JobState { kQueued, kAdmitted, kRunning, kStored, kFailed };

/// Human-readable state name ("queued", "admitted", "running", "stored",
/// "failed") for logs and examples.
const char* to_string(JobState state);

/// Configuration of one ReconService instance.
struct ServiceOptions {
  /// The rank world every dispatched stream runs with (ranks, device,
  /// queue depths, reduce segmenting, I/O prefixes are per-job instead).
  IfdkOptions ifdk;
  /// Maximum jobs handed to one run_streaming dispatch. Larger batches
  /// amortize world spin-up over more volumes; 1 degenerates to job-at-a-
  /// time dispatch.
  std::size_t max_batch = 8;
  /// Virtual-time model used for predicted completions
  /// (cluster::predict_queue_completion over the live queue).
  cluster::SimConfig sim;
  /// Start with the dispatcher paused: jobs accumulate in the queue until
  /// resume(). Tests use this to submit a full mixed-priority queue and
  /// observe the exact dispatch order.
  bool start_paused = false;
};

/// Per-tenant slice of ServiceStats.
struct TenantStats {
  std::size_t submitted = 0;  ///< jobs accepted past admission
  std::size_t stored = 0;     ///< jobs fully stored
  std::size_t failed = 0;     ///< jobs that ended kFailed
  /// Raw output bytes (4 * voxels) this tenant has pushed past admission —
  /// the tenant's claim on the store, accounted when the job is accepted.
  std::size_t admitted_output_bytes = 0;
  /// Stored volumes per wall-clock second since the service started.
  double volumes_per_second = 0;
};

/// Aggregate service counters, a consistent snapshot via
/// ReconService::stats().
struct ServiceStats {
  std::size_t submitted = 0;  ///< jobs accepted past admission
  std::size_t rejected = 0;   ///< AdmissionError count (never queued)
  std::size_t stored = 0;     ///< terminal kStored
  std::size_t failed = 0;     ///< terminal kFailed
  std::size_t queued = 0;     ///< currently waiting (kQueued + kAdmitted)
  std::size_t batches = 0;    ///< run_streaming dispatches so far
  /// Grid changes between consecutively dispatched batches: how often the
  /// scheduler had to abandon warm communicators because the next-priority
  /// work resolved a different R x C grid.
  std::size_t resplits = 0;
  /// Stored jobs per wall-clock second since the service started.
  double jobs_per_second = 0;
  /// Mean submit-to-dispatch latency over all dispatched jobs.
  double mean_queue_latency_s = 0;

  // -- byte accounting -------------------------------------------------------
  // Admission counts what a job WILL move (its raw output volume); the
  // measured counters below report what dispatched streams actually moved,
  // so ratio-of-sums = the service's achieved compression.

  /// Raw output bytes (4 * voxels) accepted past admission, all tenants.
  std::size_t admitted_output_bytes = 0;
  /// Bytes row roots handed the store path across all dispatched batches,
  /// FDK and iterative.
  std::size_t store_raw_bytes = 0;
  /// Bytes that actually hit the PFS (serialized compressed objects for
  /// JobSpec::compress_store jobs; raw bytes otherwise).
  std::size_t store_stored_bytes = 0;
  /// Per-tenant throughput breakdown, keyed by JobSpec::tenant.
  std::map<std::string, TenantStats> tenants;
};

namespace detail {
struct ServiceState;
struct JobRecord;
}  // namespace detail

/// Caller-side view of one submitted job. Handles are cheap shared
/// references into the service's job table and stay valid after the
/// ReconService is destroyed (terminal states are sticky).
class JobHandle {
 public:
  /// Service-unique job id, in submit order.
  std::uint64_t id() const;
  /// Current lifecycle state (see JobState).
  JobState state() const;
  /// The failure reason when state() == kFailed; "" otherwise.
  std::string error() const;
  /// Predicted completion of this job in *virtual* seconds from the moment
  /// the queue in front of it starts streaming — the simulate_stream
  /// epochs[i].done value republished on every queue change. 0 until the
  /// first prediction; frozen at dispatch (compare against wall measurement).
  double predicted_completion_s() const;
  /// Wall-clock seconds this job waited between submit and dispatch
  /// (0 until dispatched).
  double queue_latency_s() const;
  /// Global dispatch sequence number (0-based) assigned when the scheduler
  /// selected this job into a batch; -1 while still queued. Exposes the
  /// priority-then-EDF order for tests and tooling.
  int dispatch_seq() const;
  /// The R x C grid the job's plan resolved (valid once dispatched).
  perfmodel::GridShape grid() const;
  /// Per-stage wall seconds of the stream that carried this job
  /// (StreamingStats::wall: load/filter/allgather/backprojection/
  /// transpose/reduce/store/compute, max over ranks). Batch-level: jobs
  /// dispatched together share one stream and therefore one breakdown.
  StageTimer wall() const;
  /// Blocks until the job reaches a terminal state and returns it.
  JobState wait() const;

 private:
  friend class ReconService;
  JobHandle(std::shared_ptr<detail::ServiceState> state,
            std::shared_ptr<detail::JobRecord> job);
  std::shared_ptr<detail::ServiceState> state_;
  std::shared_ptr<detail::JobRecord> job_;
};

/// The service front door: owns the dispatch thread, the job queue, and the
/// counters. One instance per rank-world configuration; `fs` must outlive
/// the service.
class ReconService {
 public:
  /// Validates `options.ifdk` (IfdkOptions::validate) and starts the
  /// dispatch loop; `geometry` is the default for jobs without a per-job
  /// override (JobSpec::geometry).
  ReconService(const geo::CbctGeometry& geometry, pfs::ParallelFileSystem& fs,
               ServiceOptions options = {});
  ~ReconService();
  ReconService(const ReconService&) = delete;
  ReconService& operator=(const ReconService&) = delete;

  /// Admits or rejects `spec` synchronously, then enqueues it. Throws
  /// ConfigError on a malformed spec (JobSpec::validate) or an inconsistent
  /// decomposition, and AdmissionError when the resolved plan cannot fit
  /// the device or the collective tag window (counted in
  /// ServiceStats::rejected). On success the job is kQueued and its
  /// predicted completion is published on the returned handle.
  JobHandle submit(JobSpec spec);

  /// Stops dispatching new batches (the in-flight batch, if any, finishes).
  void pause();
  /// Resumes dispatching after pause().
  void resume();
  /// Blocks until the queue is empty and no batch is in flight. Implicitly
  /// resumes a paused service — drain means "run everything I submitted".
  void drain();
  /// Consistent snapshot of the aggregate counters.
  ServiceStats stats() const;

 private:
  void dispatch_loop();

  geo::CbctGeometry geometry_;
  pfs::ParallelFileSystem& fs_;
  ServiceOptions options_;
  std::shared_ptr<detail::ServiceState> state_;
  std::thread dispatcher_;
};

}  // namespace ifdk::service
