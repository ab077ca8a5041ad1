// Cluster simulator tests: agreement with the paper's measured scaling
// numbers (Figs. 5a-5d, Table 5, Fig. 6) within calibrated tolerances, and
// the pipeline-dynamics properties (delta > 1, back-pressure, startup).
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/platforms.h"
#include "cluster/simulator.h"
#include "common/error.h"
#include "perfmodel/paper_reference.h"

namespace ifdk::cluster {
namespace {

Problem problem_4k() { return {{2048, 2048, 4096}, {4096, 4096, 4096}}; }
Problem problem_8k() { return {{2048, 2048, 4096}, {8192, 8192, 8192}}; }
Problem problem_2k() { return {{2048, 2048, 4096}, {2048, 2048, 2048}}; }

double rel_err(double ours, double paper) {
  return std::abs(ours - paper) / paper;
}

TEST(Simulator, Fig5aStrongScalingCompute) {
  // Measured Tcompute of Fig. 5a within 15% at every GPU count.
  for (const auto& bar : paper::fig5a()) {
    const SimResult sim = simulate(problem_4k(), bar.gpus);
    EXPECT_LT(rel_err(sim.t_compute, bar.compute), 0.15)
        << bar.gpus << " GPUs: sim " << sim.t_compute << " vs paper "
        << bar.compute;
  }
}

TEST(Simulator, Fig5aPostPhases) {
  const SimResult sim = simulate(problem_4k(), 128);
  const auto& bar = paper::fig5a()[2];  // 128 GPUs
  EXPECT_LT(rel_err(sim.t_d2h, bar.d2h), 0.15);
  EXPECT_LT(rel_err(sim.t_store, bar.store), 0.15);
  EXPECT_LT(rel_err(sim.t_reduce, bar.reduce), 0.25);
}

TEST(Simulator, Fig5bEightKCompute) {
  for (const auto& bar : paper::fig5b()) {
    const SimResult sim = simulate(problem_8k(), bar.gpus);
    EXPECT_LT(rel_err(sim.t_compute, bar.compute), 0.20)
        << bar.gpus << " GPUs: sim " << sim.t_compute << " vs paper "
        << bar.compute;
    EXPECT_LT(rel_err(sim.t_store, bar.store), 0.15);
  }
}

TEST(Simulator, Fig5cWeakScalingFlat) {
  // Np = 16 * Ngpus: Tcompute must stay nearly constant (the paper measures
  // 9.9 -> 11.0 s from 32 to 2048 GPUs, a 11% drift).
  double first = 0;
  for (const auto& bar : paper::fig5c()) {
    Problem p = problem_4k();
    p.in.np = static_cast<std::size_t>(16 * bar.gpus);
    const SimResult sim = simulate(p, bar.gpus, {}, /*rows=*/32);
    EXPECT_LT(rel_err(sim.t_compute, bar.compute), 0.25) << bar.gpus;
    if (first == 0) first = sim.t_compute;
    // The paper itself drifts 11% (9.9 -> 11.0 s); allow 20%.
    EXPECT_LT(rel_err(sim.t_compute, first), 0.20) << "drift at " << bar.gpus;
  }
}

TEST(Simulator, Fig5dWeakScalingEightK) {
  for (const auto& bar : paper::fig5d()) {
    Problem p = problem_8k();
    p.in.np = static_cast<std::size_t>(4 * bar.gpus);
    const SimResult sim = simulate(p, bar.gpus, {}, /*rows=*/256);
    EXPECT_LT(rel_err(sim.t_compute, bar.compute), 0.25)
        << bar.gpus << ": sim " << sim.t_compute << " vs " << bar.compute;
  }
}

TEST(Simulator, Table5StageTotalsAndDelta) {
  for (const auto& row : paper::table5()) {
    const Problem p = row.volume_n == 4096 ? problem_4k() : problem_8k();
    const SimResult sim = simulate(p, row.gpus);
    EXPECT_LT(rel_err(sim.t_allgather, row.t_allgather), 0.25)
        << row.volume_n << "@" << row.gpus;
    EXPECT_LT(rel_err(sim.t_bp, row.t_bp), 0.25)
        << row.volume_n << "@" << row.gpus;
    // delta: overlap factor in (1, 2), tracking the paper's value loosely.
    EXPECT_GT(sim.delta, 1.0);
    EXPECT_LT(sim.delta, 2.0);
    EXPECT_NEAR(sim.delta, row.delta, 0.45) << row.volume_n << "@" << row.gpus;
  }
}

TEST(Simulator, HeadlineClaims) {
  // Abstract: 4K solved within 30 seconds on 2048 GPUs, 8K within 2 minutes
  // (both including I/O).
  const SimResult four_k = simulate(problem_4k(), 2048);
  EXPECT_LT(four_k.t_runtime, 30.0);
  const SimResult eight_k = simulate(problem_8k(), 2048);
  EXPECT_LT(eight_k.t_runtime, 120.0);
}

TEST(Simulator, Fig6GupsCurve2048) {
  // 2048^3 output: GUPS within 25% of Fig. 6 at every measured point
  // (the store phase is small here, so Eq.-19 GUPS is comparable).
  for (const auto& pt : paper::fig6_2048()) {
    const SimResult sim = simulate(problem_2k(), pt.gpus);
    // 30%: at >= 1024 GPUs the 2048^3 runtime is post-phase dominated and
    // Fig. 6's own GUPS appear to exclude part of it (see EXPERIMENTS.md).
    EXPECT_LT(rel_err(sim.gups, pt.gups), 0.30)
        << pt.gpus << " GPUs: sim " << sim.gups << " vs paper " << pt.gups;
  }
}

TEST(Simulator, Fig6OrderingAcrossOutputSizes) {
  // At any GPU count where both are defined, bigger outputs yield higher
  // GUPS (better device utilization — the paper's Section 5.3.3 point).
  for (int gpus : {256, 512, 1024, 2048}) {
    const double g2 = simulate(problem_2k(), gpus).gups;
    const double g4 = simulate(problem_4k(), gpus).gups;
    const double g8 = simulate(problem_8k(), gpus).gups;
    EXPECT_GT(g4, g2) << gpus;
    EXPECT_GT(g8, g4) << gpus;
  }
}

TEST(Simulator, DeltaReflectsPipelineOverlap) {
  // Removing the overlap (serializing stages) is exactly delta = 1; the
  // recurrence must always land in [1, sum/max] and above 1.1 on the
  // paper's configs where AllGather is substantial.
  const SimResult sim = simulate(problem_4k(), 64);
  EXPECT_GT(sim.delta, 1.1);
  const double serial_sum = sim.t_flt + sim.t_allgather + sim.t_bp;
  EXPECT_LT(sim.t_compute, serial_sum);  // overlap strictly helps
}

TEST(Simulator, StartupAndBackPressureVisibleInTimeline) {
  const SimResult sim = simulate(problem_4k(), 2048);
  ASSERT_GE(sim.timeline.size(), 2u);
  // Monotone stage completion per round, bp after allgather after filter.
  for (std::size_t t = 0; t < sim.timeline.size(); ++t) {
    EXPECT_LE(sim.timeline[t].filter_done, sim.timeline[t].allgather_done);
    EXPECT_LE(sim.timeline[t].allgather_done, sim.timeline[t].bp_done);
    if (t > 0) {
      EXPECT_GE(sim.timeline[t].bp_done, sim.timeline[t - 1].bp_done);
    }
  }
  // The last bp completion is the compute span.
  EXPECT_DOUBLE_EQ(sim.timeline.back().bp_done, sim.t_compute);
}

TEST(Simulator, ReduceNaWhenSingleColumn) {
  const SimResult sim = simulate(problem_4k(), 32);  // R=32 -> C=1
  EXPECT_EQ(sim.grid.columns, 1);
  EXPECT_EQ(sim.t_reduce, 0.0);
  const SimResult sim2 = simulate(problem_4k(), 64);  // C=2
  EXPECT_GT(sim2.t_reduce, 0.0);
}

TEST(Simulator, RejectsInvalidGpuCounts) {
  EXPECT_THROW(simulate(problem_4k(), 48), ifdk::ConfigError);
  EXPECT_THROW(simulate(problem_8k(), 128), ifdk::ConfigError);
}

TEST(Simulator, QueueCapacityLimitsRunahead) {
  // With a deep queue the filter thread runs ahead; with capacity 1 it is
  // lock-stepped to the AllGather, lengthening (or preserving) the span.
  SimConfig deep;
  deep.queue_capacity = 64;
  SimConfig shallow;
  shallow.queue_capacity = 1;
  const double t_deep = simulate(problem_4k(), 256, deep).t_compute;
  const double t_shallow = simulate(problem_4k(), 256, shallow).t_compute;
  EXPECT_GE(t_shallow, t_deep - 1e-9);
}

TEST(Simulator, FlatRateFallbackWithoutKernelModel) {
  SimConfig cfg;
  cfg.use_kernel_model = false;
  const SimResult sim = simulate(problem_4k(), 128, cfg);
  EXPECT_GT(sim.t_compute, 0.0);
  // Flat 200 GUPS is close to the model's slab rate for 4K: within 20%.
  const SimResult with_model = simulate(problem_4k(), 128);
  EXPECT_NEAR(sim.t_compute, with_model.t_compute,
              0.2 * with_model.t_compute);
}


TEST(Simulator, PostOverlapHelpsLittleAtScale) {
  // §4.1.4 future work, quantified: at small scale (long compute) the post
  // phase hides almost entirely; at 2048 GPUs compute is ~2 s while
  // D2H+Reduce is ~10 s, so most of it stays serial — confirming the
  // paper's decision not to implement it.
  SimConfig overlap;
  overlap.overlap_post = true;

  const SimResult small_plain = simulate(problem_4k(), 64);
  const SimResult small_over = simulate(problem_4k(), 64, overlap);
  const double saved_small = small_plain.t_runtime - small_over.t_runtime;
  EXPECT_NEAR(saved_small, small_plain.t_d2h + small_plain.t_reduce, 0.5);

  const SimResult big_plain = simulate(problem_4k(), 2048);
  const SimResult big_over = simulate(problem_4k(), 2048, overlap);
  const double saved_big = big_plain.t_runtime - big_over.t_runtime;
  EXPECT_LT(saved_big, 0.5 * (big_plain.t_d2h + big_plain.t_reduce));
  // Never slower, never better than removing the whole post phase.
  EXPECT_LE(big_over.t_runtime, big_plain.t_runtime);
  EXPECT_GE(big_over.t_runtime, big_plain.t_compute + big_plain.t_store);
}

TEST(Platforms, AwsUnderHundredDollars) {
  // Section 6.2.1: a 4K reconstruction on 256 p3.8xlarge instances costs
  // less than $100 with per-second billing.
  const auto est = platforms::estimate_aws(problem_4k(), 256 * 4);
  EXPECT_EQ(est.instances, 256);
  EXPECT_LT(est.cost_usd, 100.0);
  EXPECT_GT(est.cost_usd, 1.0);  // and it is not free
  // The 10 Gbps network makes the collective-bound pipeline slower than
  // ABCI's InfiniBand at equal GPU count (total runtime can still win
  // because per-instance NICs aggregate more store bandwidth than the
  // shared GPFS).
  const SimResult abci = simulate(problem_4k(), 1024);
  EXPECT_GT(est.sim.t_compute, abci.t_compute);
  EXPECT_GT(est.sim.t_allgather, abci.t_allgather);
}

TEST(Platforms, AwsRequiresWholeInstances) {
  EXPECT_THROW(platforms::estimate_aws(problem_4k(), 130), ifdk::ConfigError);
}

// ---- Plan-driven simulation ------------------------------------------------

/// ABCI-scale plan for `problem` on `ranks` ranks (R via Eq. 7).
DecompositionPlan make_plan(const Problem& problem, int ranks,
                            std::size_t resident_slabs = 1) {
  IfdkOptions options;
  options.ranks = ranks;
  options.rows = 0;
  return DecompositionPlan::make(geo::make_standard_geometry(problem),
                                 options, -1, resident_slabs);
}

TEST(SimulatorPlan, MatchesProblemLevelSimulate) {
  // simulate_plan must reproduce simulate() exactly when the plan resolves
  // the same grid — one recurrence, two entry points.
  for (const int gpus : {128, 512, 2048}) {
    const DecompositionPlan plan = make_plan(problem_4k(), gpus);
    const SimResult from_plan = simulate_plan(plan);
    const SimResult from_problem =
        simulate(problem_4k(), gpus, {}, plan.grid.rows);
    EXPECT_EQ(from_plan.grid.rows, from_problem.grid.rows);
    EXPECT_EQ(from_plan.rounds, from_problem.rounds);
    EXPECT_DOUBLE_EQ(from_plan.t_compute, from_problem.t_compute);
    EXPECT_DOUBLE_EQ(from_plan.t_runtime, from_problem.t_runtime);
    EXPECT_DOUBLE_EQ(from_plan.gups, from_problem.gups);
  }
}

TEST(SimulatorStream, PipeliningBeatsSequentialAndRespectsBounds) {
  // N identical volumes streamed through one world: the stream must finish
  // faster than N sequential runs (volume v+1's compute hides behind volume
  // v's post phase) but no faster than N times the bp-bound compute.
  const DecompositionPlan plan = make_plan(problem_4k(), 2048, 2);
  const std::size_t n = 6;
  const std::vector<DecompositionPlan> plans(n, plan);
  const StreamSimResult stream = simulate_stream(plans);
  const SimResult single = simulate_plan(plan);

  ASSERT_EQ(stream.volumes, n);
  EXPECT_EQ(stream.ranks, 2048);
  EXPECT_EQ(stream.regrids, 0u);
  EXPECT_GT(stream.t_total, single.t_runtime);
  EXPECT_LT(stream.t_total, static_cast<double>(n) * single.t_runtime);
  EXPECT_NEAR(stream.volumes_per_second,
              static_cast<double>(n) / stream.t_total, 1e-12);

  // Per-epoch timeline is monotone and consistent.
  ASSERT_EQ(stream.epochs.size(), n);
  double prev_done = 0;
  for (const EpochSim& e : stream.epochs) {
    EXPECT_LE(e.bp_done, e.post_start + 1e-12);
    EXPECT_LT(e.post_start, e.done);
    EXPECT_GT(e.done, prev_done);
    prev_done = e.done;
  }
  EXPECT_DOUBLE_EQ(stream.t_total, stream.epochs.back().done);
}

TEST(SimulatorStream, MixedGeometrySequenceResplitsAndStillPipelines) {
  // Alternating 4K / half-depth frames resolve different R (64 vs 32 with
  // the streaming double buffer resident): the simulator must count the
  // re-splits, charge them, and still predict a pipelined stream.
  const Problem full = problem_4k();
  const Problem half{{2048, 2048, 4096}, {4096, 4096, 2048}};
  std::vector<DecompositionPlan> plans;
  for (int v = 0; v < 6; ++v) {
    plans.push_back(make_plan(v % 2 == 0 ? full : half, 2048, 2));
  }
  ASSERT_NE(plans[0].grid.rows, plans[1].grid.rows);

  const StreamSimResult stream = simulate_stream(plans);
  EXPECT_EQ(stream.regrids, 5u);  // every boundary changes the grid
  for (std::size_t v = 0; v < stream.epochs.size(); ++v) {
    EXPECT_EQ(stream.epochs[v].regrid, v > 0);
    EXPECT_EQ(stream.epochs[v].grid.rows, plans[v].grid.rows);
  }

  // Against the homogeneous stream of only full-size frames, the mixed
  // stream (half the work on odd frames) must be faster per volume.
  const std::vector<DecompositionPlan> all_full(6, plans[0]);
  EXPECT_GT(stream.volumes_per_second,
            simulate_stream(all_full).volumes_per_second);

  // A replan cost of zero can only help; a large one must hurt.
  SimConfig free_replan;
  free_replan.replan_s = 0.0;
  SimConfig slow_replan;
  slow_replan.replan_s = 10.0;
  EXPECT_LE(simulate_stream(plans, free_replan).t_total, stream.t_total);
  EXPECT_GT(simulate_stream(plans, slow_replan).t_total, stream.t_total);
}

TEST(SimulatorStream, RejectsMixedRankCounts) {
  std::vector<DecompositionPlan> plans;
  plans.push_back(make_plan(problem_4k(), 2048));
  plans.push_back(make_plan(problem_4k(), 1024));
  EXPECT_THROW(simulate_stream(plans), ifdk::ConfigError);
}

// ---- Iterate-loop recurrence ------------------------------------------------

TEST(SimulatorIterative, PhasesComposeAndScaleWithIterationsSubsetsRanks) {
  const DecompositionPlan plan = make_plan(problem_2k(), 128);
  const IterSimResult five = simulate_iterative(plan, 5, 1);
  EXPECT_GT(five.t_setup, 0.0);
  EXPECT_GT(five.t_iteration, 0.0);
  EXPECT_GT(five.t_total, five.t_setup + 5 * five.t_iteration);

  // The recurrence is linear in the iteration count: five more iterations
  // cost exactly five more t_iteration.
  const IterSimResult ten = simulate_iterative(plan, 10, 1);
  EXPECT_DOUBLE_EQ(ten.t_iteration, five.t_iteration);
  EXPECT_DOUBLE_EQ(ten.t_total - five.t_total, 5 * five.t_iteration);

  // More subsets = same compute per iteration but one volume all-reduce per
  // sweep instead of one total: strictly more collective time.
  const IterSimResult os = simulate_iterative(plan, 5, 4);
  EXPECT_GT(os.t_iteration, five.t_iteration);

  // More ranks shrink the per-rank view share, so the compute-dominated
  // iteration shortens.
  const IterSimResult wide = simulate_iterative(make_plan(problem_2k(), 512),
                                                5, 1);
  EXPECT_LT(wide.t_iteration, five.t_iteration);

  // One rank: the all-reduce degenerates to a local copy (free), so the
  // single-subset iteration is pure compute.
  IfdkOptions solo;
  solo.ranks = 1;
  solo.rows = 1;
  const DecompositionPlan p1 = DecompositionPlan::make(
      geo::make_standard_geometry({{64, 64, 8}, {32, 32, 32}}), solo);
  const IterSimResult single = simulate_iterative(p1, 3, 1);
  EXPECT_GT(single.t_iteration, 0.0);
}

TEST(SimulatorQueue, MixedQueueComposesStreamsAndSerialIterativeJobs) {
  const DecompositionPlan plan = make_plan(problem_2k(), 128);

  // An all-FDK queue streams as one batch: each job completes when its
  // simulate_stream epoch does.
  const std::vector<QueuedJob> all_fdk = {{plan}, {plan}, {plan}};
  const std::vector<DecompositionPlan> plans = {plan, plan, plan};
  const std::vector<double> fdk_done =
      predict_queue_completion(std::span<const QueuedJob>(all_fdk));
  const StreamSimResult stream = simulate_stream(plans);
  ASSERT_EQ(fdk_done.size(), stream.epochs.size());
  for (std::size_t i = 0; i < fdk_done.size(); ++i) {
    EXPECT_DOUBLE_EQ(fdk_done[i], stream.epochs[i].done) << "job " << i;
  }

  // FDK, ITER, FDK: the iterative job runs serially between the two FDK
  // streams, so each completion is the running clock plus that job's own
  // recurrence — and the order is strictly increasing.
  const std::vector<QueuedJob> mixed = {
      {plan}, {plan, /*iterative=*/true, /*iterations=*/4, /*subsets=*/2},
      {plan}};
  const std::vector<double> done =
      predict_queue_completion(std::span<const QueuedJob>(mixed));
  ASSERT_EQ(done.size(), 3u);
  EXPECT_GT(done[0], 0.0);
  EXPECT_LT(done[0], done[1]);
  EXPECT_LT(done[1], done[2]);
  const StreamSimResult solo_fdk = simulate_stream({&plan, 1});
  const IterSimResult iter = simulate_iterative(plan, 4, 2);
  EXPECT_DOUBLE_EQ(done[1], solo_fdk.t_total + iter.t_total);
  EXPECT_DOUBLE_EQ(done[2],
                   solo_fdk.t_total + iter.t_total + solo_fdk.t_total);
}

TEST(Platforms, Dgx2ReasonableForFourKAndFastForTwoK) {
  // Section 6.2.2 claims 4K "within a minute" on a DGX-2; our model, which
  // charges the two sequential slab passes a 16-GPU box needs for R=32,
  // lands within ~2x of that claim (see EXPERIMENTS.md) and well under the
  // 2048-GPU 8K time. 2048^3 fits in one pass and finishes fast.
  const auto four_k = platforms::estimate_dgx2(problem_4k());
  EXPECT_LT(four_k.t_runtime, 150.0);
  EXPECT_GT(four_k.t_runtime, 30.0);  // one box is not a supercomputer
  const auto two_k = platforms::estimate_dgx2(problem_2k());
  EXPECT_LT(two_k.t_runtime, 30.0);
  EXPECT_LT(two_k.t_runtime, four_k.t_runtime);
}

TEST(SimulatorCompression, StoreDiscountShrinksOnlyTheStorePhase) {
  // The store-bytes discount: feeding a measured store compression ratio
  // into SimConfig must shrink exactly the phase that moves the discounted
  // bytes — t_store — and leave the reduce and the compute pipeline
  // untouched.
  const DecompositionPlan plan = make_plan(problem_4k(), 2048, 2);
  const SimResult base = simulate_plan(plan);

  SimConfig store;
  store.store_compression_ratio = 3.0;
  const SimResult stored = simulate_plan(plan, store);
  EXPECT_LT(stored.t_store, base.t_store);
  EXPECT_DOUBLE_EQ(stored.t_reduce, base.t_reduce);
  EXPECT_DOUBLE_EQ(stored.t_compute, base.t_compute);
  // The stripe-efficiency term is applied to the DISCOUNTED slices, so the
  // store phase shrinks by LESS than the raw ratio (smaller objects waste
  // more of each PFS stripe) — the discount must not be double-counted as
  // a free 3x.
  EXPECT_GT(stored.t_store, base.t_store / 3.0);

  // The streaming forecast inherits the discount: a 2,048-rank stream
  // with the store ratio applied finishes measurably earlier.
  const std::vector<DecompositionPlan> plans(4, plan);
  const StreamSimResult fast = simulate_stream(plans, store);
  const StreamSimResult slow = simulate_stream(plans);
  EXPECT_LT(fast.t_total, slow.t_total);
  EXPECT_GT(fast.volumes_per_second, slow.volumes_per_second);
}

}  // namespace
}  // namespace ifdk::cluster
