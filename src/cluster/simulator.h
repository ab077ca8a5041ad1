// Virtual-time cluster simulator for iFDK at scale.
//
// The functional framework (src/ifdk) runs the real pipeline on real data but
// cannot be executed with 2,048 ranks on one machine at 4K/8K sizes. This
// module replays the *timing* of the same pipeline in virtual time: every
// rank runs the three-thread pipeline of Fig. 4a as a per-round recurrence
//
//   F_t = max(F_{t-1}, A_{t-cap}) + t_load + t_filter          (Filtering)
//   A_t = max(F_t, A_{t-1}) + t_allgather                      (Main)
//   B_t = max(A_t, B_{t-1}) + t_h2d + t_bp + gamma * t_allgather  (Bp)
//
// where round t gathers R projections (one per column rank) and back-projects
// them into the rank's slab pair. The recurrence reproduces the pipelining
// effects the analytic model of Section 4.2 cannot: startup fill, queue
// back-pressure, and the delta > 1 overlap factor of Table 5.
//
// Calibration. Base constants are the paper's published micro-benchmarks
// (perfmodel::MicroBench). On top of them the simulator models the four
// measured-vs-model gaps the paper itself analyzes in Section 5.3.3:
//   * gamma        — main-thread collectives contend with the pipeline
//                    ("the data exchange between the three threads ... can
//                    have some overhead");
//   * d2h_efficiency — "contention on the PCIe switch feeding two GPUs";
//   * reduce_first_call_penalty — "the first call to the collective is
//                    typically slower";
//   * store slice/stripe mismatch — "volume slices written to PFS not tuned
//                    to the ideal stripe size" (small slices waste targets).
// AllGather is priced by a ring-bandwidth model with congestion growing in
// the group size R, calibrated to Table 5's TAllGather column.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geometry/types.h"
#include "ifdk/plan.h"
#include "perfmodel/model.h"

namespace ifdk::cluster {

struct SimConfig {
  perfmodel::MicroBench mb;

  /// Per-rank effective AllGather ring bandwidth at small group sizes [B/s]
  /// and the group size at which congestion halves it.
  double allgather_bandwidth = 2.33e9;
  double allgather_congestion_r = 512.0;
  /// Fabric congestion between concurrent column AllGathers: per-round time
  /// is scaled by 1 + k * (1 - 1/C). Calibrated to Table 5's TAllGather
  /// column, which shrinks slower than 1/C.
  double allgather_multi_column = 0.7;

  /// Fraction of the round's AllGather time that bleeds into the Bp thread
  /// (CPU/memory contention between the Main thread's collective memcpys
  /// and the rest of the pipeline).
  double gamma = 0.55;

  /// Pipeline fill / thread+buffer setup time added once.
  double startup_s = 0.6;

  /// Slab aspect-ratio penalty scale: kernel GUPS is divided by
  /// (1 + (Nx / local_depth) / aspect_penalty_scale). Extreme flat slabs
  /// (8K at R=256: 8192 x 8192 x 32) lose locality on the V axis.
  double aspect_penalty_scale = 512.0;

  /// Measured effective fraction of nominal PCIe bandwidth for the D2H
  /// burst at the end (all four GPUs of a node drain simultaneously).
  double d2h_efficiency = 0.30;

  /// One-time cost of the single cold MPI_Reduce call.
  double reduce_first_call_penalty_s = 2.0;

  /// Store efficiency = slice / (slice + store_halfpoint_bytes): small slices
  /// under-utilize PFS stripes.
  double store_halfpoint_bytes = 10.0 * (1 << 20);

  /// Circular buffer depth (Fig. 4a) for the back-pressure term.
  std::size_t queue_capacity = 8;

  /// Streaming only: per-epoch replanning cost charged when consecutive
  /// volumes resolve to *different* R x C grids — the filter/back-projection
  /// engines are rebuilt and the ranks switch to freshly split
  /// communicators (whose first reduce pays the cold-call penalty again).
  double replan_s = 0.05;

  /// Use gpusim::KernelModel (Table-4 calibrated) for the kernel rate;
  /// false = flat mb.bp_gups.
  bool use_kernel_model = true;

  /// Store-bytes discount of the compressed store path
  /// (JobSpec::compress_store): the store phase writes out_bytes /
  /// store_compression_ratio. Feed it a measured
  /// StreamingStats::store_ratio(); 1.0 models the raw store. The
  /// slice-size store efficiency is applied to the DISCOUNTED bytes — the
  /// serialized objects are what hits the PFS stripes.
  double store_compression_ratio = 1.0;

  /// Iterative workload rates (iterative::run_iterative): the forward
  /// projector's ray samples per second and the B operator's voxel updates
  /// per second, per rank. The projector is the scalar ray marcher of
  /// src/projector. B is the unweighted Algorithm-4 kernel
  /// (bp::Backprojector, distance_weight = false) on the resolved SIMD
  /// column backend, one view per call on one thread per rank; its rate is
  /// measured from run_iterative's `backproject` stage (EXPERIMENTS.md,
  /// "Iterative B operator on the Algorithm-4 kernel"), not taken from the
  /// Table-4 GPU model.
  double iter_fp_samples_per_s = 1.5e8;
  double iter_bp_updates_per_s = 2.5e8;

  /// Paper §4.1.4 future work: "overlapping the tasks after the
  /// back-projection (the device to host copy, reduction, and storing to
  /// PFS) does not guarantee any performance improvement". When true, the
  /// simulator lets D2H + Reduce of finished slab regions hide behind the
  /// remaining compute rounds (bounded by the compute time left after the
  /// first round completes); the store stays serial (it needs the reduced
  /// volume). The bench ablation confirms the paper's scepticism: at scale
  /// Tcompute shrinks below Tpost, so there is little room to hide in.
  bool overlap_post = false;
};

/// Per-stage timeline entry for one pipeline round (drives the Fig. 4c
/// Gantt-style output).
struct RoundTimes {
  double filter_done = 0;     ///< F_t
  double allgather_done = 0;  ///< A_t
  double bp_done = 0;         ///< B_t
};

struct SimResult {
  perfmodel::GridShape grid;
  std::size_t rounds = 0;

  // Stage totals in the Table-5 sense (unoverlapped sums).
  double t_load = 0;
  double t_flt = 0;        ///< includes t_load, as Table 5 does
  double t_allgather = 0;
  double t_bp = 0;         ///< includes H2D, as Eq. (12) does

  // End-to-end phases (the Fig. 5 stacked bars).
  double t_compute = 0;    ///< pipeline span (includes startup)
  double t_d2h = 0;
  double t_reduce = 0;     ///< 0 when C == 1 (the figures' N/A)
  double t_store = 0;
  double t_runtime = 0;

  double delta = 0;        ///< (t_flt + t_allgather + t_bp) / t_compute
  double gups = 0;         ///< end-to-end GUPS on t_runtime (Eq. 19)
  double gups_compute = 0; ///< GUPS excluding the store phase

  std::vector<RoundTimes> timeline;  ///< per-round, for Fig. 4c
};

/// Simulates `problem` on `gpus` ranks; R from Eq. (7) unless `rows` > 0.
SimResult simulate(const Problem& problem, int gpus, const SimConfig& config = {},
                   int rows = 0);

/// Simulates one resolved DecompositionPlan — the same recurrence as
/// simulate(), but grid, rounds, and problem all come from the plan object
/// the real runtime executes (no second copy of the decomposition
/// arithmetic). simulate() is equivalent to building a standard-geometry
/// plan and calling this.
SimResult simulate_plan(const DecompositionPlan& plan,
                        const SimConfig& config = {});

/// One volume epoch of a simulated stream (Fig. 4a recurrence + post
/// phase), in virtual seconds since stream start.
struct EpochSim {
  perfmodel::GridShape grid;
  std::size_t rounds = 0;
  bool regrid = false;     ///< grid changed vs the previous epoch (re-split)
  double bp_done = 0;      ///< last back-projection round of this volume
  double post_start = 0;   ///< reduce thread picks the slab up
  double done = 0;         ///< volume fully reduced and stored
};

/// Virtual-time replay of a whole run_streaming call at scale.
struct StreamSimResult {
  std::size_t volumes = 0;
  int ranks = 0;
  std::size_t regrids = 0;        ///< epochs that re-split the grid
  double t_total = 0;             ///< last volume stored
  double volumes_per_second = 0;  ///< the streaming throughput headline
  std::vector<EpochSim> epochs;   ///< per-volume timeline
};

/// Replays a *sequence* of plans — one per streamed volume, exactly what
/// StreamingStats::plans records — through the streaming recurrence: volume
/// v+1's filter/gather/bp rounds (the Fig. 4a per-round recurrence,
/// carried across volume boundaries) overlap volume v's reduce+store, the
/// depth-1 slab handoff gates the bp thread one volume ahead of the reduce
/// thread, and a grid change between epochs charges SimConfig::replan_s
/// plus a fresh reduce cold-call penalty. All plans must share one rank
/// count (they run in one world). Predicts streaming volumes/sec at scales
/// one machine cannot execute.
StreamSimResult simulate_stream(std::span<const DecompositionPlan> plans,
                                const SimConfig& config = {});

/// Virtual-time phases of one distributed iterative job
/// (iterative::run_iterative) on the plan's rank grid.
struct IterSimResult {
  perfmodel::GridShape grid;
  double t_setup = 0;      ///< shard load + normalization all-reduces
  double t_iteration = 0;  ///< one full iteration (all subset sweeps)
  double t_total = 0;      ///< startup + setup + iterations + store
};

/// Replays the iterate-loop recurrence of iterative::run_iterative in
/// virtual time: per iteration, each of `subsets` sweeps forward-projects
/// and back-projects the rank's view share and all-reduces the replicated
/// volume (reduce-scatter + allgather, 2*V/P per rank over
/// MicroBench::th_reduce; free at one rank);
/// setup adds the shard load and the per-subset normalization all-reduces,
/// and rank 0's serial slice store closes the job. The workload is
/// compute-dominated by the scalar projector kernels, so the recurrence is
/// a phase sum, not a per-round pipeline.
IterSimResult simulate_iterative(const DecompositionPlan& plan,
                                 int iterations, int subsets,
                                 const SimConfig& config = {});

/// One entry of a mixed FDK + iterative dispatch queue.
struct QueuedJob {
  DecompositionPlan plan;  ///< the job's resolved decomposition
  bool iterative = false;  ///< false = FDK (streams with its neighbours)
  int iterations = 0;      ///< kIterative only
  int subsets = 1;         ///< kIterative only (1 for SART/MLEM)
};

/// Queue-driven service entry: given every queued job in dispatch order,
/// returns each job's predicted completion in virtual seconds from "the
/// queue starts now". Contiguous runs of FDK jobs stream through
/// simulate_stream (overlapping epochs, exactly like the service's batched
/// dispatch; an all-FDK queue predicts simulate_stream(plans).epochs[i].done
/// for every i), while each iterative job runs serially through
/// simulate_iterative — matching ReconService's one-at-a-time iterative
/// dispatch. service::ReconService republishes these as per-job predicted
/// completions whenever the queue changes; an empty queue predicts nothing.
std::vector<double> predict_queue_completion(std::span<const QueuedJob> jobs,
                                             const SimConfig& config = {});

}  // namespace ifdk::cluster
