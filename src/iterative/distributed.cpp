#include "iterative/distributed.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
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

/// Per-rank results the workload owns (the generic wall/total stats ride
/// the engine's RankContext; these fields are identical on every rank after
/// the final barrier, so the caller reads rank 0's).
struct IterRankOut {
  int iterations_run = 0;
  std::vector<double> residual_rmse;
};

/// The per-rank body of the distributed solver (see distributed.h for the
/// decomposition and the parity contract).
class IterativeWorkload final : public engine::Workload {
 public:
  IterativeWorkload(pfs::ParallelFileSystem& fs, const IfdkOptions& options,
                    const JobSpec& job, const DecompositionPlan& plan)
      : fs_(fs), job_(job), plan_(plan) {
    outs_.resize(static_cast<std::size_t>(options.ranks));
  }

  /// Rank `rank`'s convergence record (identical across ranks).
  const IterRankOut& out(std::size_t rank) const { return outs_[rank]; }

  /// One rank's solve: load shard, normalize, iterate, store (rank 0).
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
    const std::vector<std::size_t> shard =
        plan.projection_shard(plan.row_of(rank), plan.col_of(rank));
    std::vector<Image2D> proj;
    proj.reserve(shard.size());
    ctx.wall.time("load", [&] {
      for (const std::size_t s : shard) {
        Image2D img(g.nu, g.nv, /*zero_fill=*/false);
        fs_.read_object(engine::object_name(job_.input_prefix, s), img.data(),
                        img.bytes());
        proj.push_back(std::move(img));
      }
    });
    const bool is_mlem = params.algorithm == Algorithm::kMlem;
    if (is_mlem) {
      for (const Image2D& p : proj) {
        for (std::size_t n = 0; n < p.pixels(); ++n) {
          IFDK_REQUIRE(p.data()[n] >= 0.0f,
                       "MLEM requires non-negative data");
        }
      }
    }

    const projector::ForwardProjector fp(g, params.step_fraction);

    // ---- Volume all-reduce: segmented tree ireduce to rank 0 + bcast ------
    // At P = 1 the root fold is a copy and the bcast a no-op, so the summed
    // volume is bitwise the local accumulation — the parity contract's
    // single-rank leg. The bcast makes the result bitwise-identical on
    // every rank, which is what keeps the iterates (and the convergence
    // branch) rank-consistent.
    std::vector<float> reduce_recv(rank == 0 ? plan.volume_floats() : 0);
    auto allreduce_volume = [&](Volume& v) {
      ctx.wall.time("allreduce", [&] {
        mpi::Comm::CollectiveRequest req = world.ireduce(
            v.data(), rank == 0 ? reduce_recv.data() : nullptr, v.voxels(),
            mpi::ReduceOp::kSum, /*root=*/0, plan.reduce_segment_floats);
        req.wait();
        if (rank == 0) {
          std::copy(reduce_recv.begin(), reduce_recv.begin() + v.voxels(),
                    v.data());
        }
        world.bcast(v.data(), v.voxels() * sizeof(float), /*root=*/0);
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
        Volume norm(g.nx, g.ny, g.nz);
        for (const std::size_t idx : owned_in_subset(sub)) {
          backproject_unweighted(g, ones_img, g.beta(shard[idx]), norm);
        }
        allreduce_volume(norm);
        vox_norm.push_back(std::move(norm));
      }
    });
    engine::assert_tag_budget(
        setup_before, world.collective_tags_reserved(),
        plan.iter_setup_tag_budget(subsets),
        "iterative normalization exceeded the plan's setup tag budget");

    // ---- Iterate ----------------------------------------------------------
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
          Volume update(g.nx, g.ny, g.nz);
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
          allreduce_volume(update);
          const Volume& norm = vox_norm[static_cast<std::size_t>(sub)];
          ctx.wall.time("update", [&] {
            for (std::size_t n = 0; n < x.voxels(); ++n) {
              const float denom = std::max(norm.data()[n], kEps);
              x.data()[n] += static_cast<float>(params.lambda) *
                             update.data()[n] / denom;
            }
          });
        }
      } else {
        Volume ratio_bp(g.nx, g.ny, g.nz);
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
        allreduce_volume(ratio_bp);
        const Volume& sens = vox_norm[0];
        ctx.wall.time("update", [&] {
          for (std::size_t n = 0; n < x.voxels(); ++n) {
            x.data()[n] *= ratio_bp.data()[n] /
                           std::max(sens.data()[n], kEps);
          }
        });
      }

      // Rank-consistent convergence check: one scalar allreduce, every rank
      // sees the identical reduced value and takes the identical branch.
      float local = static_cast<float>(local_sumsq);
      float total = 0;
      ctx.wall.time("allreduce", [&] {
        world.allreduce(&local, &total, 1, mpi::ReduceOp::kSum);
      });
      const double rmse = std::sqrt(static_cast<double>(total) / total_pixels);
      engine::assert_tag_budget(
          iter_before, world.collective_tags_reserved(),
          plan.iter_iteration_tag_budget(subsets),
          "iterative iteration exceeded the plan's tag budget");
      out.residual_rmse.push_back(rmse);
      out.iterations_run = it + 1;
      if (params.stop_rmse > 0 && rmse <= params.stop_rmse) break;
    }

    // ---- Store (rank 0 writes every slice; the volume is replicated) ------
    if (rank == 0) {
      ctx.wall.time("store", [&] {
        for (std::size_t k = 0; k < g.nz; ++k) {
          fs_.write_object(engine::object_name(job_.output_prefix, k),
                           x.slice(k), plan.slice_px * sizeof(float));
        }
      });
    }
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
  const int subsets = job.iterative.subsets;  // 1 for MLEM (validated)
  if (plan.iter_device_bytes(subsets) > options.device.memory_bytes) {
    throw DeviceOutOfMemory(
        "iterative reconstruction needs " +
        std::to_string(plan.iter_device_bytes(subsets)) +
        " B of device memory (replicated volume + " +
        std::to_string(subsets) +
        " column-norm volume(s) + the view shard) but the device has " +
        std::to_string(options.device.memory_bytes) + " B");
  }

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
  return out;
}

}  // namespace ifdk::iterative
