#include "cluster/simulator.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.h"
#include "common/math_util.h"
#include "gpusim/kernel_model.h"

namespace ifdk::cluster {

namespace {

/// Per-round stage durations of the Fig. 4a pipeline on an R x C grid —
/// shared by the single-volume recurrence (simulate / simulate_plan) and
/// the streaming recurrence (simulate_stream).
struct RoundCosts {
  double t_load = 0;
  double t_filter = 0;
  double t_ag = 0;
  double t_h2d = 0;
  double t_bp = 0;
};

RoundCosts round_costs(const Problem& problem, int r, int c,
                       const SimConfig& config) {
  const perfmodel::MicroBench& mb = config.mb;
  const double pb = static_cast<double>(problem.in.bytes_per_projection());
  const double ranks = static_cast<double>(r) * static_cast<double>(c);

  RoundCosts rc;
  // Every rank loads one projection per round; all ranks share the PFS link.
  rc.t_load = pb * ranks / mb.bw_load;
  // One projection filtered per round; a node's THflt is shared by its
  // gpus_per_node ranks.
  rc.t_filter = static_cast<double>(mb.gpus_per_node) / mb.th_flt;
  // Ring AllGather of R contributions of pb bytes, with congestion growing
  // in the group size.
  const double ag_bw = config.allgather_bandwidth /
                       (1.0 + static_cast<double>(r) /
                                  config.allgather_congestion_r);
  const double multi_column =
      1.0 + config.allgather_multi_column * (1.0 - 1.0 / static_cast<double>(c));
  rc.t_ag = static_cast<double>(r) * pb / ag_bw * multi_column;
  // H2D of the round's R projections over the node's PCIe links.
  rc.t_h2d = static_cast<double>(r) * pb *
             static_cast<double>(mb.gpus_per_node) /
             (mb.bw_pcie * static_cast<double>(mb.pcie_per_node));
  // Back-projection of R projections into this rank's slab pair.
  const double slab_voxels =
      static_cast<double>(problem.out.voxels()) / static_cast<double>(r);
  double kernel_gups = mb.bp_gups;
  const std::size_t local_depth = std::max<std::size_t>(
      1, problem.out.nz / static_cast<std::size_t>(r));
  if (config.use_kernel_model) {
    static const gpusim::KernelModel model;
    // The kernel rate is a per-launch property: one launch back-projects one
    // Nbatch-projection batch into the slab, so alpha is computed against
    // the batch, not the whole scan (which would make the rate depend on
    // Np, which GUPS by definition does not).
    const Problem slab{{problem.in.nu, problem.in.nv, mb.batch},
                       {problem.out.nx, problem.out.ny, local_depth}};
    kernel_gups = model.predict_gups(bp::KernelVariant::kL1Tran, slab);
  }
  // Flat-slab locality penalty (see header).
  kernel_gups /= 1.0 + static_cast<double>(problem.out.nx) /
                           static_cast<double>(local_depth) /
                           config.aspect_penalty_scale;
  rc.t_bp =
      static_cast<double>(r) * slab_voxels / (kernel_gups * 1073741824.0);
  return rc;
}

/// Post-phase (Fig. 4b) durations. t_reduce excludes the one-time cold-call
/// penalty — the caller decides when a communicator is cold (once per run
/// for simulate(); once per distinct grid for simulate_stream, matching the
/// runtime's communicator caching across re-splits).
struct PostCosts {
  double t_d2h = 0;
  double t_reduce = 0;
  double t_store = 0;
};

PostCosts post_costs(const Problem& problem, int r, int c,
                     const SimConfig& config) {
  const perfmodel::MicroBench& mb = config.mb;
  const double out_bytes = static_cast<double>(problem.out.bytes());

  PostCosts pc;
  pc.t_d2h = out_bytes * static_cast<double>(mb.gpus_per_node) /
             (static_cast<double>(r) * mb.bw_pcie *
              static_cast<double>(mb.pcie_per_node) * config.d2h_efficiency);
  pc.t_reduce =
      c > 1 ? out_bytes / (static_cast<double>(r) * mb.th_reduce) : 0.0;
  // The compressed store writes serialized objects: both the bytes moved
  // and the stripe-efficiency slice size shrink by the store ratio.
  const double slice_bytes =
      static_cast<double>(problem.out.nx * problem.out.ny * sizeof(float)) /
      config.store_compression_ratio;
  const double store_eff =
      slice_bytes / (slice_bytes + config.store_halfpoint_bytes);
  pc.t_store =
      out_bytes / config.store_compression_ratio / (mb.bw_store * store_eff);
  return pc;
}

/// The shared single-volume body: Fig. 4a recurrence + post phase for a
/// resolved (r, c, rounds) decomposition of `problem`.
SimResult simulate_grid(const Problem& problem, int r, int c,
                        std::size_t rounds, const SimConfig& config) {
  IFDK_REQUIRE(rounds >= 1, "fewer projections than ranks");

  SimResult out;
  out.grid = {r, c};
  out.rounds = rounds;

  const RoundCosts rc = round_costs(problem, r, c, config);

  // ---- Pipeline recurrence (Fig. 4a) -------------------------------------

  out.timeline.reserve(std::min<std::size_t>(rounds, 1u << 16));
  std::vector<double> f_hist(rounds + 1, 0.0);
  double f_prev = config.startup_s;
  double a_prev = config.startup_s;
  double b_prev = config.startup_s;
  for (std::size_t t = 0; t < rounds; ++t) {
    // Back-pressure: the filtering thread stalls when the queue is full
    // (it can be at most queue_capacity rounds ahead of the Main thread).
    double f_gate = f_prev;
    if (t >= config.queue_capacity) {
      f_gate = std::max(f_gate, f_hist[t - config.queue_capacity]);
    }
    const double f_t = f_gate + rc.t_load + rc.t_filter;
    const double a_t = std::max(f_t, a_prev) + rc.t_ag;
    // The gamma term models CPU/memory contention between the Main thread's
    // in-flight AllGather and the Bp thread; the last round has no
    // concurrent AllGather left to contend with.
    const double interference =
        (t + 1 < rounds) ? config.gamma * rc.t_ag : 0.0;
    const double b_t = std::max(a_t, b_prev) + rc.t_h2d + rc.t_bp + interference;
    f_hist[t] = a_t;  // main-thread progress gates the filtering queue
    f_prev = f_t;
    a_prev = a_t;
    b_prev = b_t;
    if (out.timeline.size() < (1u << 16)) {
      out.timeline.push_back(RoundTimes{f_t, a_t, b_t});
    }
  }

  out.t_load = static_cast<double>(rounds) * rc.t_load;
  out.t_flt = static_cast<double>(rounds) * (rc.t_load + rc.t_filter);
  out.t_allgather = static_cast<double>(rounds) * rc.t_ag;
  out.t_bp = static_cast<double>(rounds) * (rc.t_h2d + rc.t_bp);
  out.t_compute = b_prev;
  out.delta = (out.t_flt + out.t_allgather + out.t_bp) / out.t_compute;

  // ---- Post phase (Fig. 4b) -----------------------------------------------

  const PostCosts pc = post_costs(problem, r, c, config);
  out.t_d2h = pc.t_d2h;
  out.t_reduce =
      c > 1 ? pc.t_reduce + config.reduce_first_call_penalty_s : 0.0;
  out.t_store = pc.t_store;

  if (config.overlap_post) {
    // D2H/Reduce of early slab regions can start once the pipeline's first
    // round has produced data; the hideable window is the compute span past
    // that point. Whatever does not fit stays serial.
    const double first_round_done =
        out.timeline.empty() ? 0.0 : out.timeline.front().bp_done;
    const double window = std::max(0.0, out.t_compute - first_round_done);
    const double hidden = std::min(out.t_d2h + out.t_reduce, window);
    out.t_runtime =
        out.t_compute + (out.t_d2h + out.t_reduce - hidden) + out.t_store;
  } else {
    out.t_runtime = out.t_compute + out.t_d2h + out.t_reduce + out.t_store;
  }
  out.gups = gups(problem.out.nx, problem.out.ny, problem.out.nz,
                  problem.in.np, out.t_runtime);
  out.gups_compute = gups(problem.out.nx, problem.out.ny, problem.out.nz,
                          problem.in.np, out.t_runtime - out.t_store);
  return out;
}

}  // namespace

SimResult simulate(const Problem& problem, int gpus, const SimConfig& config,
                   int rows) {
  const int r = rows > 0 ? rows : perfmodel::select_rows(problem, config.mb);
  IFDK_REQUIRE(gpus >= r && gpus % r == 0,
               "GPU count must be a positive multiple of R");
  const int c = gpus / r;
  const std::size_t rounds = static_cast<std::size_t>(
      static_cast<double>(problem.in.np) /
      (static_cast<double>(c) * static_cast<double>(r)));
  return simulate_grid(problem, r, c, rounds, config);
}

SimResult simulate_plan(const DecompositionPlan& plan,
                        const SimConfig& config) {
  return simulate_grid(plan.geometry.problem(), plan.grid.rows,
                       plan.grid.columns, plan.rounds, config);
}

StreamSimResult simulate_stream(std::span<const DecompositionPlan> plans,
                                const SimConfig& config) {
  StreamSimResult out;
  out.volumes = plans.size();
  if (plans.empty()) return out;
  out.ranks = plans[0].ranks();
  std::size_t total_rounds = 0;
  for (const DecompositionPlan& plan : plans) {
    IFDK_REQUIRE(plan.ranks() == out.ranks,
                 "all plans of a stream must share one rank world");
    IFDK_REQUIRE(plan.rounds >= 1, "fewer projections than ranks");
    total_rounds += plan.rounds;
  }
  out.epochs.reserve(plans.size());

  // The Fig. 4a recurrence, carried ACROSS volume boundaries: the worker
  // keeps filtering/gathering and the bp thread keeps back-projecting while
  // earlier volumes drain through the reduce thread. a_hist implements the
  // bounded-queue gate over the global round index.
  double f = config.startup_s;
  double a = config.startup_s;
  double b = config.startup_s;
  std::vector<double> a_hist;
  a_hist.reserve(total_rounds);
  std::size_t g = 0;  // global round index across the stream

  // Reduce-thread chain: post_start gates the depth-1 slab handoff,
  // post_done the next epoch's reduce. A grid first seen in the stream runs
  // on cold communicators and pays the reduce cold-call penalty; a re-split
  // BACK to an earlier grid reuses its (warm) communicators, exactly like
  // the runtime's per-grid comm cache.
  double post_start_prev = 0;
  double post_done_prev = 0;
  std::set<int> warm_grids;

  for (std::size_t v = 0; v < plans.size(); ++v) {
    const DecompositionPlan& plan = plans[v];
    const Problem problem = plan.geometry.problem();
    const int r = plan.grid.rows;
    const int c = plan.grid.columns;
    const bool regrid = v > 0 && !plans[v - 1].same_grid(plan);
    if (regrid) {
      // Engine rebuild + communicator switch on the worker and bp chains.
      ++out.regrids;
      f += config.replan_s;
      b += config.replan_s;
    }

    const RoundCosts rc = round_costs(problem, r, c, config);
    for (std::size_t t = 0; t < plan.rounds; ++t, ++g) {
      double f_gate = f;
      if (g >= config.queue_capacity) {
        f_gate = std::max(f_gate, a_hist[g - config.queue_capacity]);
      }
      const double f_t = f_gate + rc.t_load + rc.t_filter;
      const double a_t = std::max(f_t, a) + rc.t_ag;
      // Unlike the single-volume run, the next volume's AllGather follows
      // immediately — only the stream's very last round is contention-free.
      const double interference =
          (g + 1 < total_rounds) ? config.gamma * rc.t_ag : 0.0;
      const double b_t = std::max(a_t, b) + rc.t_h2d + rc.t_bp + interference;
      a_hist.push_back(a_t);
      f = f_t;
      a = a_t;
      b = b_t;
    }

    const PostCosts pc = post_costs(problem, r, c, config);
    // The modeled GPU drains the slab (D2H) on the Bp-thread before the
    // slab handoff.
    b += pc.t_d2h;
    const double bp_done = b;
    // Depth-1 slab queue: the push completes once the reduce thread popped
    // the previous volume's slab; the bp thread resumes the next volume
    // only then (at most one volume ahead).
    const double push_done = std::max(bp_done, post_start_prev);
    const double post_start = std::max(push_done, post_done_prev);
    double t_reduce = pc.t_reduce;
    if (c > 1 && warm_grids.insert(r).second) {
      t_reduce += config.reduce_first_call_penalty_s;
    }
    const double done = post_start + t_reduce + pc.t_store;

    out.epochs.push_back(
        EpochSim{plan.grid, plan.rounds, regrid, bp_done, post_start, done});
    b = push_done;
    post_start_prev = post_start;
    post_done_prev = done;
  }

  out.t_total = post_done_prev;
  out.volumes_per_second =
      out.t_total > 0 ? static_cast<double>(out.volumes) / out.t_total : 0;
  return out;
}

IterSimResult simulate_iterative(const DecompositionPlan& plan,
                                 int iterations, int subsets,
                                 const SimConfig& config) {
  IFDK_REQUIRE(iterations >= 1, "iterations must be at least 1");
  IFDK_REQUIRE(subsets >= 1, "subsets must be at least 1");
  const perfmodel::MicroBench& mb = config.mb;
  const Problem problem = plan.geometry.problem();
  const double ranks = static_cast<double>(plan.ranks());
  const double rounds = static_cast<double>(plan.rounds);
  const double pb = static_cast<double>(problem.in.bytes_per_projection());
  const double voxels = static_cast<double>(problem.out.voxels());
  const double vol_bytes = static_cast<double>(problem.out.bytes());

  IterSimResult out;
  out.grid = plan.grid;

  // One sweep over a subset: each rank forward-projects its rounds/subsets
  // owned views (each ray marches ~2*max(N) samples across the volume) and
  // back-projects the correction into the full replicated volume.
  const double views_per_sweep = rounds / static_cast<double>(subsets);
  const double samples_per_view =
      static_cast<double>(plan.pixels) * 2.0 *
      static_cast<double>(std::max({problem.out.nx, problem.out.ny,
                                    problem.out.nz}));
  const double t_fwd_sweep =
      views_per_sweep * samples_per_view / config.iter_fp_samples_per_s;
  const double t_bp_sweep =
      views_per_sweep * voxels / config.iter_bp_updates_per_s;
  // Volume all-reduce per sweep: the runtime's reduce-scatter + allgather
  // moves 2*V/P per rank; free at one rank.
  const double t_allreduce =
      plan.ranks() > 1 ? 2.0 * vol_bytes / (ranks * mb.th_reduce) : 0.0;

  out.t_iteration = static_cast<double>(subsets) *
                    (t_fwd_sweep + t_bp_sweep + t_allreduce);

  // Setup: the shard load (all ranks share the PFS link), the normalization
  // back-projections (one B*1 pass over every view, spread across ranks)
  // and their per-subset all-reduces.
  const double t_load = rounds * pb * ranks / mb.bw_load;
  const double t_norm = rounds * voxels / config.iter_bp_updates_per_s +
                        static_cast<double>(subsets) * t_allreduce;
  out.t_setup = t_load + t_norm;

  // Rank 0's serial slice store of the replicated volume.
  const double slice_bytes =
      static_cast<double>(problem.out.nx * problem.out.ny * sizeof(float));
  const double store_eff =
      slice_bytes / (slice_bytes + config.store_halfpoint_bytes);
  const double t_store = vol_bytes / (mb.bw_store * store_eff);

  out.t_total = config.startup_s + out.t_setup +
                static_cast<double>(iterations) * out.t_iteration + t_store;
  return out;
}

std::vector<double> predict_queue_completion(std::span<const QueuedJob> jobs,
                                             const SimConfig& config) {
  std::vector<double> done(jobs.size(), 0.0);
  double clock = 0;
  std::size_t i = 0;
  while (i < jobs.size()) {
    if (jobs[i].iterative) {
      // Iterative jobs dispatch one at a time (no cross-job overlap).
      clock += simulate_iterative(jobs[i].plan, jobs[i].iterations,
                                  jobs[i].subsets, config)
                   .t_total;
      done[i] = clock;
      ++i;
      continue;
    }
    // A contiguous FDK run streams as one batch: its epochs overlap exactly
    // as simulate_stream models, then the next queue entry starts after the
    // batch's last volume is stored.
    std::vector<DecompositionPlan> plans;
    const std::size_t first = i;
    while (i < jobs.size() && !jobs[i].iterative) {
      plans.push_back(jobs[i].plan);
      ++i;
    }
    const StreamSimResult sim = simulate_stream(plans, config);
    for (std::size_t v = 0; v < sim.epochs.size(); ++v) {
      done[first + v] = clock + sim.epochs[v].done;
    }
    clock += sim.t_total;
  }
  return done;
}

}  // namespace ifdk::cluster
