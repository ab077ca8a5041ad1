#include "iterative/distributed.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/image.h"
#include "common/volume.h"
#include "engine/engine.h"
#include "iterative/iterative.h"
#include "minimpi/minimpi.h"
#include "projector/forward.h"

namespace ifdk::iterative {

namespace {

/// Normalization floor: the smallest row norm (A*1), column norm (B*1) or
/// MLEM forward value a division may see.
constexpr float kEps = 1e-6f;

/// Walks the solver's kZMajor B volumes in storage order and calls
/// fn(z, x) with each voxel's kZMajor index and the kXMajor index of the
/// same (i, j, k) in the estimate: Algorithm 4's line-22 reshape, fused
/// into the update so the B volumes are never reshaped.
template <class Fn>
void for_each_voxel(const geo::CbctGeometry& g, Fn&& fn) {
  const std::size_t slice = g.nx * g.ny;
  std::size_t z = 0;
  for (std::size_t i = 0; i < g.nx; ++i) {
    for (std::size_t j = 0; j < g.ny; ++j) {
      for (std::size_t x = j * g.nx + i; x < slice * g.nz; x += slice) {
        fn(z++, x);
      }
    }
  }
}

/// Per-rank results the workload owns (the generic wall/total stats ride
/// the engine's RankContext). The convergence record is identical on every
/// rank, so the caller reads rank 0's; the store fields are set on row
/// roots only and merged across ranks.
struct IterRankOut {
  int iterations_run = 0;
  std::vector<double> residual_rmse;
  std::string store_error;  ///< row roots only; "" = slab pair stored
  pfs::StreamStats store;   ///< row roots only; this root's slab pair
};

/// The per-rank body of the distributed solver (see distributed.h for the
/// decomposition and the parity contract).
class IterativeWorkload final : public engine::Workload {
 public:
  IterativeWorkload(pfs::ParallelFileSystem& fs, const IfdkOptions& options,
                    const JobSpec& job, const DecompositionPlan& plan)
      : fs_(fs), options_(options), job_(job), plan_(plan) {
    outs_.resize(static_cast<std::size_t>(options.ranks));
  }

  /// Rank `rank`'s convergence record and store outcome.
  const IterRankOut& out(std::size_t rank) const { return outs_[rank]; }

  /// One rank's solve: load shard, normalize, iterate, store (row roots).
  void run_rank(engine::RankContext& ctx) override {
    const DecompositionPlan& plan = plan_;
    const geo::CbctGeometry& g = plan.geometry;
    const IterParams& params = job_.iterative;
    const int subsets = params.subsets;

    mpi::Comm& world = ctx.world;
    const int rank = ctx.rank;
    IterRankOut& out = outs_[static_cast<std::size_t>(rank)];
    Timer rank_timer;

    // ---- Load this rank's view shard (ascending projection index) ---------
    // A non-finite pixel would spread NaN through every voxel its rays
    // touch, and MLEM's multiplicative update needs non-negative data, so
    // both are rejected here, naming the object and the pixel.
    const bool is_mlem = params.algorithm == Algorithm::kMlem;
    const std::vector<std::size_t> shard =
        plan.projection_shard(plan.row_of(rank), plan.col_of(rank));
    std::vector<Image2D> proj;
    proj.reserve(shard.size());
    ctx.wall.time("load", [&] {
      for (const std::size_t s : shard) {
        const std::string name = engine::object_name(job_.input_prefix, s);
        Image2D img(g.nu, g.nv, /*zero_fill=*/false);
        fs_.read_object(name, img.data(), img.bytes());
        for (std::size_t n = 0; n < img.pixels(); ++n) {
          const float p = img.data()[n];
          if (!std::isfinite(p)) {
            throw ConfigError("projection object '" + name + "' pixel " +
                              std::to_string(n) + " is not finite (" +
                              std::to_string(p) + ")");
          }
          if (is_mlem && p < 0.0f) {
            throw ConfigError("MLEM requires non-negative data: projection "
                              "object '" + name + "' pixel " +
                              std::to_string(n) + " is " +
                              std::to_string(p));
          }
        }
        proj.push_back(std::move(img));
      }
    });

    const projector::ForwardProjector fp(g, params.step_fraction);

    // ---- Volume all-reduce (in place) ---------------------------------------
    // At P = 1 it is a no-op, so the summed volume is bitwise the local
    // accumulation: the parity contract's single-rank leg. Every rank
    // receives the identical folded volume, which keeps the iterates (and
    // the convergence branch) rank-consistent.
    auto allreduce_sum = [&](float* data, std::size_t count) {
      ctx.wall.time("allreduce", [&] {
        world.allreduce(data, data, count, mpi::ReduceOp::kSum);
      });
    };

    // Views of subset `sub` this rank owns, in ascending projection order —
    // on one rank exactly the serial sweep order s = sub, sub+subsets…
    auto owned_in_subset = [&](int sub) {
      std::vector<std::size_t> views;
      for (std::size_t idx = 0; idx < shard.size(); ++idx) {
        if (shard[idx] % static_cast<std::size_t>(subsets) ==
            static_cast<std::size_t>(sub)) {
          views.push_back(idx);
        }
      }
      return views;
    };

    // ---- Normalization setup (one all-reduced volume per subset) ----------
    const std::uint64_t setup_before = world.collective_tags_reserved();
    std::vector<Image2D> ray_norm;   // SART: A*1 for owned views (local)
    std::vector<Volume> vox_norm;    // SART: B_subset*1; MLEM: sensitivity
                                     // (kZMajor, like every B volume)
    ctx.wall.time("normalize", [&] {
      Image2D ones_img(g.nu, g.nv, /*zero_fill=*/false);
      ones_img.fill(1.0f);
      if (!is_mlem) {
        ray_norm.reserve(shard.size());
        for (const std::size_t s : shard) {
          ray_norm.push_back(fp.ray_lengths(g.beta(s)));
        }
      }
      vox_norm.reserve(static_cast<std::size_t>(subsets));
      for (int sub = 0; sub < subsets; ++sub) {
        Volume norm(g.nx, g.ny, g.nz, VolumeLayout::kZMajor);
        for (const std::size_t idx : owned_in_subset(sub)) {
          backproject_unweighted(g, ones_img, g.beta(shard[idx]), norm);
        }
        allreduce_sum(norm.data(), norm.voxels());
        vox_norm.push_back(std::move(norm));
      }
    });
    engine::assert_tag_budget(
        setup_before, world.collective_tags_reserved(),
        plan.iter_setup_tag_budget(subsets),
        "iterative normalization exceeded the plan's setup tag budget");

    // ---- Iterate ----------------------------------------------------------
    // The estimate stays kXMajor: the projector marches it (a kZMajor
    // estimate measured 2-3x slower to march with four ranks sharing the
    // caches) and the store writes its slices as they lie.
    Volume x(g.nx, g.ny, g.nz, VolumeLayout::kXMajor,
             /*zero_fill=*/!is_mlem);
    if (is_mlem) x.fill(1.0f);  // strictly positive start
    Image2D resid(g.nu, g.nv, /*zero_fill=*/false);
    out.residual_rmse.reserve(static_cast<std::size_t>(params.iterations));
    const double total_pixels =
        static_cast<double>(g.np) * static_cast<double>(plan.pixels);
    for (int it = 0; it < params.iterations; ++it) {
      const std::uint64_t iter_before = world.collective_tags_reserved();
      double local_sumsq = 0;  // raw (p - A x) over owned views, this sweep
      if (!is_mlem) {
        for (int sub = 0; sub < subsets; ++sub) {
          Volume update(g.nx, g.ny, g.nz, VolumeLayout::kZMajor);
          for (const std::size_t idx : owned_in_subset(sub)) {
            const std::size_t s = shard[idx];
            Image2D fwd;
            ctx.wall.time("forward",
                          [&] { fwd = fp.project(x, g.beta(s)); });
            for (std::size_t n = 0; n < resid.pixels(); ++n) {
              const float diff = proj[idx].data()[n] - fwd.data()[n];
              local_sumsq += static_cast<double>(diff) * diff;
              const float norm = std::max(ray_norm[idx].data()[n], kEps);
              resid.data()[n] = diff / norm;
            }
            ctx.wall.time("backproject", [&] {
              backproject_unweighted(g, resid, g.beta(s), update);
            });
          }
          allreduce_sum(update.data(), update.voxels());
          const Volume& norm = vox_norm[static_cast<std::size_t>(sub)];
          ctx.wall.time("update", [&] {
            for_each_voxel(g, [&](std::size_t z, std::size_t n) {
              const float denom = std::max(norm.data()[z], kEps);
              x.data()[n] += static_cast<float>(params.lambda) *
                             update.data()[z] / denom;
            });
          });
        }
      } else {
        Volume ratio_bp(g.nx, g.ny, g.nz, VolumeLayout::kZMajor);
        Image2D ratio(g.nu, g.nv, /*zero_fill=*/false);
        for (std::size_t idx = 0; idx < shard.size(); ++idx) {
          const std::size_t s = shard[idx];
          Image2D fwd;
          ctx.wall.time("forward", [&] { fwd = fp.project(x, g.beta(s)); });
          for (std::size_t n = 0; n < ratio.pixels(); ++n) {
            const float diff = proj[idx].data()[n] - fwd.data()[n];
            local_sumsq += static_cast<double>(diff) * diff;
            ratio.data()[n] =
                proj[idx].data()[n] / std::max(fwd.data()[n], kEps);
          }
          ctx.wall.time("backproject", [&] {
            backproject_unweighted(g, ratio, g.beta(s), ratio_bp);
          });
        }
        allreduce_sum(ratio_bp.data(), ratio_bp.voxels());
        const Volume& sens = vox_norm[0];
        ctx.wall.time("update", [&] {
          for_each_voxel(g, [&](std::size_t z, std::size_t n) {
            x.data()[n] *= ratio_bp.data()[z] /
                           std::max(sens.data()[z], kEps);
          });
        });
      }

      // Rank-consistent convergence check: one scalar allreduce, every rank
      // sees the identical reduced value and takes the identical branch.
      float total = static_cast<float>(local_sumsq);
      allreduce_sum(&total, 1);
      const double rmse = std::sqrt(static_cast<double>(total) / total_pixels);
      engine::assert_tag_budget(
          iter_before, world.collective_tags_reserved(),
          plan.iter_iteration_tag_budget(subsets),
          "iterative iteration exceeded the plan's tag budget");
      out.residual_rmse.push_back(rmse);
      out.iterations_run = it + 1;
      if (params.stop_rmse > 0 && rmse <= params.stop_rmse) break;
    }

    // ---- Store (row roots write their slab pairs, as FDK does) ------------
    // The estimate is replicated, so each row root stores its row's slices
    // from its own copy.
    const int row = plan.row_of(rank);
    const bool root = plan.col_of(rank) == 0;
    engine::VolumeWriterSet writers(
        fs_, options_.queue_capacity, {root},
        {job_.compress_store ? job_.store_bits : 0});
    if (root) {
      ctx.wall.time("store", [&] {
        for (std::size_t k = 0; k < 2 * plan.slab_h; ++k) {
          const std::size_t z = plan.global_slice(row, k);
          const float* src = x.slice(z);
          // A poisoned stream refuses further slices; the error surfaces
          // from finish_volume.
          if (!writers.enqueue(0, engine::object_name(job_.output_prefix, z),
                               std::vector<float>(src, src + plan.slice_px))) {
            break;
          }
        }
        out.store_error = writers.finish_volume(0);
      });
      out.store = writers.volume_store_stats(0);
    }
    writers.finish();
    world.barrier();
    ctx.total = rank_timer.seconds();
    if (ctx.total > 0) {
      ctx.efficiency.add("compute",
                         (ctx.wall.get("forward") +
                          ctx.wall.get("backproject") +
                          ctx.wall.get("update")) /
                             ctx.total);
      ctx.efficiency.add("allreduce", ctx.wall.get("allreduce") / ctx.total);
    }
  }

 private:
  pfs::ParallelFileSystem& fs_;
  const IfdkOptions& options_;
  const JobSpec& job_;
  const DecompositionPlan& plan_;
  std::vector<IterRankOut> outs_;
};

}  // namespace

IterStats run_iterative(const geo::CbctGeometry& geometry,
                        pfs::ParallelFileSystem& fs,
                        const IfdkOptions& options, const JobSpec& job) {
  options.validate();
  job.validate();
  IFDK_REQUIRE(job.workload == WorkloadKind::kIterative,
               "run_iterative executes iterative jobs only; FDK jobs "
               "dispatch through run_streaming");
  const geo::CbctGeometry g = job.geometry.value_or(geometry);
  const DecompositionPlan plan = DecompositionPlan::make(g, options);
  plan.check_iter_device_fit(job.iterative.subsets, options.device);

  IterativeWorkload workload(fs, options, job, plan);
  const engine::EngineStats engine_stats =
      engine::run(options.ranks, workload);

  IterStats out;
  out.grid = plan.grid;
  out.algorithm = to_string(job.iterative.algorithm);
  out.wall = engine_stats.wall;
  out.wall_total = engine_stats.wall_total;
  // Every rank recorded the identical (all-reduced) trajectory; publish
  // rank 0's.
  out.iterations_run = workload.out(0).iterations_run;
  out.residual_rmse = workload.out(0).residual_rmse;
  out.iterations_per_second =
      out.wall_total > 0 ? out.iterations_run / out.wall_total : 0;
  // Each row root stored one slab pair: the merged stats are the volume's
  // store, and any root's failed write fails the one volume.
  for (int r = 0; r < options.ranks; ++r) {
    const IterRankOut& rank_out = workload.out(static_cast<std::size_t>(r));
    if (!rank_out.store_error.empty()) throw IoError(rank_out.store_error);
    out.store.merge(rank_out.store);
  }
  return out;
}

}  // namespace ifdk::iterative
