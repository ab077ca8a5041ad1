// Regenerates paper Fig. 7: the volume-reduction example — a 2048^3
// reconstruction on a 4x4 grid of 16 GPUs (R=4, C=4), reported at 1,134
// GUPS.
//
// Two parts:
//   1. a *functional* run of the real distributed pipeline on a
//      proportionally scaled-down problem with the same 4x4 grid (16 real
//      ranks, real filtering/AllGather/back-projection/Reduce/store),
//      verifying the output against the single-node reference;
//   2. the full-size problem through the calibrated simulator, reporting
//      GUPS next to the paper's 1,134.
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "cluster/simulator.h"
#include "common/table.h"
#include "ifdk/fdk.h"
#include "ifdk/framework.h"

int main() {
  using namespace ifdk;
  bench::print_header("Fig. 7 — volume reduction on a 4x4 rank grid",
                      "paper Figure 7");

  // Part 1: functional 16-rank run, scaled geometry (64^2 x 32 -> 32^3).
  bench::Scene scene = bench::make_scene({{64, 64, 32}, {32, 32, 32}});
  pfs::ParallelFileSystem fs;
  stage_projections(fs, "proj/", scene.projections);
  IfdkOptions opts;
  opts.ranks = 16;
  opts.rows = 4;
  const StreamingStats stats = run_distributed(scene.g, fs, opts);
  const Volume result = load_volume(fs, "vol/slice_", scene.g.vol_dims());
  const Volume reference =
      reconstruct_fdk(scene.g, scene.projections).volume;
  double err = 0, peak = 0;
  for (std::size_t n = 0; n < result.voxels(); ++n) {
    const double d = result.data()[n] - reference.data()[n];
    err += d * d;
    peak = std::max(peak, std::abs(static_cast<double>(reference.data()[n])));
  }
  err = std::sqrt(err / static_cast<double>(result.voxels())) / peak;
  std::printf("functional run: grid %dx%d, 16 ranks, wall %.2f s\n",
              stats.grid.rows, stats.grid.columns, stats.wall_total);
  std::printf("  per-stage wall max: load %.3f  filter %.3f  allgather %.3f"
              "  bp %.3f  reduce %.3f  store %.3f [s]\n",
              stats.wall.get("load"), stats.wall.get("filter"),
              stats.wall.get("allgather"), stats.wall.get("backprojection"),
              stats.wall.get("reduce"), stats.wall.get("store"));
  std::printf("  relative RMSE vs single-node FDK: %.2e (paper verifies "
              "RMSE < 1e-5 vs RTK)\n\n", err);

  // Part 2: the paper's exact configuration through the simulator.
  const Problem full{{2048, 2048, 4096}, {2048, 2048, 2048}};
  const cluster::SimResult sim = cluster::simulate(full, 16, {}, /*rows=*/4);
  TextTable t({"", "compute(s)", "D2H(s)", "reduce(s)", "store(s)",
               "runtime(s)", "GUPS"});
  t.row()
      .add("simulated 16 V100s")
      .add(sim.t_compute, 1)
      .add(sim.t_d2h, 1)
      .add(sim.t_reduce, 1)
      .add(sim.t_store, 1)
      .add(sim.t_runtime, 1)
      .add(sim.gups, 0);
  std::printf("%s", t.str().c_str());
  std::printf("paper: 1134 GUPS for 2048^2x4096 -> 2048^3 on 16 GPUs "
              "(R=4, C=4)\n");
  return 0;
}
