#include "backproj/backprojector.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include <cstdint>

#include "backproj/interp2.h"
#include "backproj/simd/column_kernel.h"
#include "backproj/slab_schedule.h"
#include "common/error.h"

namespace ifdk::bp {

namespace {

/// Inner product of a P row (4 floats) with (i, j, k, 1) — the unit of work
/// the paper counts when it states the 1/6 reduction.
inline float dot_row(const float* row, float i, float j, float k) {
  return row[0] * i + row[1] * j + row[2] * k + row[3];
}

/// The AVX2 and AVX-512 backends gather with 32-bit indices; projections
/// beyond this pixel count must take a gather-free path (scalar, or NEON
/// with its per-lane scalar fetches).
constexpr std::size_t kMaxGatherPixels =
    static_cast<std::size_t>(INT32_MAX);

}  // namespace

const char* to_string(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kRtk32:   return "RTK-32";
    case KernelVariant::kBpTex:   return "Bp-Tex";
    case KernelVariant::kTexTran: return "Tex-Tran";
    case KernelVariant::kBpL1:    return "Bp-L1";
    case KernelVariant::kL1Tran:  return "L1-Tran";
  }
  return "?";
}

BpConfig config_for(KernelVariant variant) {
  BpConfig cfg;
  switch (variant) {
    case KernelVariant::kRtk32:
      // The RTK kernel_fdk_3Dgrid scheme: Algorithm 2 with a 32-projection
      // batch, i-major volume, untransposed projections.
      cfg.symmetry = false;
      cfg.reuse_uw = false;
      cfg.transpose_projections = false;
      cfg.layout = VolumeLayout::kXMajor;
      break;
    case KernelVariant::kBpTex:
      // Proposed loop order + transposed volume, but projections are fetched
      // in their raw layout (the GPU texture hides the transposition).
      cfg.transpose_projections = false;
      break;
    case KernelVariant::kTexTran:
    case KernelVariant::kBpL1:
    case KernelVariant::kL1Tran:
      // Full Algorithm 4. On the GPU these three differ only in which cache
      // serves the projection fetches (2D-layered texture vs plain global vs
      // __ldg); on the CPU the memory behaviour is identical.
      break;
  }
  return cfg;
}

Backprojector::Backprojector(const geo::CbctGeometry& geometry,
                             BpConfig config)
    : geometry_(geometry), config_(config) {
  geometry_.validate();
  IFDK_REQUIRE(config_.batch > 0, "batch must be positive");
  if (config_.layout == VolumeLayout::kXMajor) {
    IFDK_REQUIRE(!config_.symmetry && !config_.reuse_uw &&
                     !config_.transpose_projections,
                 "the X-major (standard Algorithm 2) kernel does not support "
                 "the Algorithm 4 optimizations; use kZMajor");
    IFDK_REQUIRE(!config_.slab_mode(),
                 "slab-pair mode requires the proposed (kZMajor) kernel");
  }
  IFDK_REQUIRE(config_.distance_weight ||
                   (config_.reuse_uw &&
                    config_.layout == VolumeLayout::kZMajor),
               "distance_weight = false requires reuse_uw and the kZMajor "
               "layout (the weight is a hoisted per-column factor)");
  if (config_.slab_mode()) {
    IFDK_REQUIRE(config_.symmetry,
                 "slab-pair mode is defined by the Theorem-1 symmetry");
    IFDK_REQUIRE(config_.k_begin + config_.k_half <= geometry_.nz / 2,
                 "slab pair exceeds the lower half of the volume");
    IFDK_REQUIRE(config_.k_half > 0, "slab pair must be non-empty");
  }

  // Resolve the SIMD column backend once (runtime CPUID dispatch). Oversized
  // projections overflow the x86 gathers' 32-bit indices: auto falls back to
  // the widest gather-free backend (NEON fetches per lane, scalar always
  // works), and an explicit AVX2/AVX-512 request is rejected.
  simd::Backend backend = config_.simd_backend;
  const std::size_t pixels = geometry_.nu * geometry_.nv;
  const bool gather_overflow = pixels > kMaxGatherPixels;
  if (backend == simd::Backend::kAuto && gather_overflow) {
    backend = simd::supported(simd::Backend::kNeon) ? simd::Backend::kNeon
                                                    : simd::Backend::kScalar;
  }
  IFDK_REQUIRE(!gather_overflow || (backend != simd::Backend::kAvx2 &&
                                    backend != simd::Backend::kAvx512),
               "projection exceeds 32-bit gather indexing; use the scalar "
               "or neon backend");
  column_kernel_ = &simd::select(backend);
}

void Backprojector::accumulate(Volume& volume,
                               std::span<const Image2D> projections,
                               std::span<const geo::Mat34> matrices) const {
  IFDK_REQUIRE(projections.size() == matrices.size(),
               "one projection matrix per projection is required");
  const std::size_t expected_nz =
      config_.slab_mode() ? 2 * config_.k_half : geometry_.nz;
  IFDK_REQUIRE(volume.nx() == geometry_.nx && volume.ny() == geometry_.ny &&
                   volume.nz() == expected_nz,
               "volume dimensions do not match the geometry (slab-pair mode "
               "expects local depth 2*k_half)");
  IFDK_REQUIRE(volume.layout() == config_.layout,
               "volume layout does not match the kernel configuration");
  for (const auto& p : projections) {
    IFDK_REQUIRE(p.width() == geometry_.nu && p.height() == geometry_.nv,
                 "projection size does not match the geometry");
  }
  if (config_.layout == VolumeLayout::kXMajor) {
    run_standard(volume, projections, matrices);
  } else {
    run_proposed(volume, projections, matrices);
  }
}

void Backprojector::run_standard(Volume& volume,
                                 std::span<const Image2D> projections,
                                 std::span<const geo::Mat34> matrices) const {
  const std::size_t nx = geometry_.nx;
  const std::size_t ny = geometry_.ny;
  const std::size_t nz = geometry_.nz;
  const std::size_t nu = geometry_.nu;
  const std::size_t nv = geometry_.nv;

  for (std::size_t first = 0; first < projections.size();
       first += config_.batch) {
    const std::size_t count =
        std::min(config_.batch, projections.size() - first);

    // Flatten the batch's matrices once (the CUDA kernel keeps them in
    // constant memory, Listing 1 line 1).
    std::vector<std::array<float, 12>> pmat(count);
    std::vector<const float*> img(count);
    for (std::size_t s = 0; s < count; ++s) {
      pmat[s] = matrices[first + s].to_float();
      img[s] = projections[first + s].data();
    }

    auto slice_task = [&](std::size_t k) {
      const float fk = static_cast<float>(k);
      float* out = volume.slice(k);
      for (std::size_t j = 0; j < ny; ++j) {
        const float fj = static_cast<float>(j);
        float* out_row = out + j * nx;
        for (std::size_t i = 0; i < nx; ++i) {
          const float fi = static_cast<float>(i);
          float acc = 0.0f;
          for (std::size_t s = 0; s < count; ++s) {
            const float* m = pmat[s].data();
            // Algorithm 2 line 6: three inner products per voxel.
            const float x = dot_row(m + 0, fi, fj, fk);
            const float y = dot_row(m + 4, fi, fj, fk);
            const float z = dot_row(m + 8, fi, fj, fk);
            const float f = 1.0f / z;
            const float wdis = f * f;
            acc += wdis * interp2(img[s], nu, nv, x * f, y * f);
          }
          out_row[i] += acc;
        }
      }
    };

    if (config_.pool != nullptr) {
      config_.pool->parallel_for(0, nz, slice_task);
    } else {
      for (std::size_t k = 0; k < nz; ++k) slice_task(k);
    }
  }
}

void Backprojector::run_proposed(Volume& volume,
                                 std::span<const Image2D> projections,
                                 std::span<const geo::Mat34> matrices) const {
  const std::size_t nx = geometry_.nx;
  const std::size_t ny = geometry_.ny;
  const std::size_t nz = geometry_.nz;
  const std::size_t nu = geometry_.nu;
  const std::size_t nv = geometry_.nv;
  // Slab-pair bookkeeping: k runs over [k0, k0 + half) in *global* indices;
  // writes land at local depth nzl with the mirror at nzl - 1 - local.
  const bool slab = config_.slab_mode();
  const std::size_t k0 = slab ? config_.k_begin : 0;
  const std::size_t half = slab ? config_.k_half : nz / 2;
  const std::size_t nzl = slab ? 2 * config_.k_half : nz;
  const bool odd = !slab && (nz % 2) != 0;
  const float v_mirror = static_cast<float>(nv) - 1.0f;
  // Pair iterations per column: the symmetric kernel walks half the depth
  // (each step also updates the mirror voxel), the ablated one all of it.
  const std::size_t t_count = config_.symmetry ? half : nz;

  // Schedule: serial runs the whole space as one block; with a pool the
  // space is tiled into cache-blocked (i-block × k-slab) tasks. Tasks with
  // identical shapes produce bitwise-identical volumes because the hoisted
  // Theorem-2/3 terms are k-independent and per-voxel accumulation order
  // over the batch never changes.
  std::vector<SlabTask> tasks;
  if (config_.pool != nullptr) {
    SlabPlanParams plan;
    plan.nx = nx;
    plan.t_count = t_count;
    plan.batch = std::min(config_.batch, projections.size());
    plan.num_threads = config_.pool->size();
    tasks = plan_slab_tasks(plan);
  } else {
    tasks.push_back(SlabTask{0, nx, 0, t_count});
  }

  for (std::size_t first = 0; first < projections.size();
       first += config_.batch) {
    const std::size_t count =
        std::min(config_.batch, projections.size() - first);

    std::vector<std::array<float, 12>> pmat(count);
    for (std::size_t s = 0; s < count; ++s) {
      pmat[s] = matrices[first + s].to_float();
    }

    // Algorithm 4 line 3: transpose the batch once; its cost is a small
    // fraction of the stage (paper §3.2.3) and is included in the timing.
    // The transposes are independent, so the pool does them batch-wide.
    std::vector<Image2D> transposed;
    std::vector<const float*> img(count);
    if (config_.transpose_projections) {
      transposed.resize(count);
      auto transpose_one = [&](std::size_t s) {
        transposed[s] = projections[first + s].transposed();
      };
      if (config_.pool != nullptr) {
        config_.pool->parallel_for(0, count, transpose_one);
      } else {
        serial_for(0, count, transpose_one);
      }
      for (std::size_t s = 0; s < count; ++s) img[s] = transposed[s].data();
    } else {
      for (std::size_t s = 0; s < count; ++s) {
        img[s] = projections[first + s].data();
      }
    }

    // Per-batch constants for the SIMD column backends; the per-column loop
    // below hands one (i, j) column at a time to the resolved backend.
    simd::BatchArgs batch;
    batch.images = img.data();
    batch.pmat = pmat.data();
    batch.count = count;
    batch.nu = nu;
    batch.nv = nv;
    batch.transposed = config_.transpose_projections;
    batch.symmetry = config_.symmetry;
    batch.reuse_uw = config_.reuse_uw;
    batch.v_mirror = v_mirror;
    batch.k0 = k0;
    batch.nzl = nzl;
    batch.center = half;

    auto block_task = [&](const SlabTask& task) {
      std::vector<float> u_s(count), f_s(count), w_s(count);
      simd::ColumnArgs column;
      column.t_begin = task.t_begin;
      column.t_end = task.t_end;
      // Exactly one slab per column ends at t_count; it owns the odd
      // center plane whose mirror is itself.
      column.do_center = config_.symmetry && odd && task.t_end == t_count;
      for (std::size_t i = task.i_begin; i < task.i_end; ++i) {
        const float fi = static_cast<float>(i);
        column.fi = fi;
        for (std::size_t j = 0; j < ny; ++j) {
          const float fj = static_cast<float>(j);
          column.fj = fj;
          column.col = volume.data() + (i * ny + j) * nzl;

          if (config_.reuse_uw) {
            // Algorithm 4 lines 6-10: two inner products per (i, j), reused
            // across the slab's whole k range (Theorems 2 and 3; they are
            // k-independent, so a per-slab rehoist reproduces the exact
            // serial values).
            for (std::size_t s = 0; s < count; ++s) {
              const float* m = pmat[s].data();
              const float x = dot_row(m + 0, fi, fj, 0.0f);
              const float z = dot_row(m + 8, fi, fj, 0.0f);
              const float f = 1.0f / z;
              u_s[s] = x * f;
              f_s[s] = f;
              w_s[s] = config_.distance_weight ? f * f : 1.0f;
            }
            column.u_s = u_s.data();
            column.f_s = f_s.data();
            column.w_s = w_s.data();
          }

          column_kernel_->run(batch, column);
        }
      }
    };

    if (config_.pool != nullptr) {
      config_.pool->parallel_for(
          0, tasks.size(), [&](std::size_t n) { block_task(tasks[n]); });
    } else {
      block_task(tasks.front());
    }
  }
}

OpCounts Backprojector::count_ops(std::size_t num_projections) const {
  const std::uint64_t nx = geometry_.nx;
  const std::uint64_t ny = geometry_.ny;
  const std::uint64_t nz = geometry_.nz;
  const std::uint64_t np = num_projections;
  const std::uint64_t columns = nx * ny * np;
  OpCounts ops;

  if (config_.layout == VolumeLayout::kXMajor) {
    // Algorithm 2: 3 inner products, 1 fetch, 1 update per (voxel, proj).
    ops.inner_products = 3 * columns * nz;
    ops.interp_calls = columns * nz;
    ops.voxel_updates = columns * nz;
    return ops;
  }

  if (config_.slab_mode()) {
    const std::uint64_t h = config_.k_half;
    ops.interp_calls = columns * 2 * h;
    ops.voxel_updates = ops.interp_calls;
    ops.inner_products =
        config_.reuse_uw ? columns * (2 + h) : columns * 3 * h;
    return ops;
  }

  const std::uint64_t half = nz / 2;
  const std::uint64_t odd = nz % 2;
  if (config_.symmetry) {
    ops.interp_calls = columns * (2 * half + odd);
    ops.voxel_updates = ops.interp_calls;
    if (config_.reuse_uw) {
      // 2 hoisted products per column + 1 per k iteration (pairs + middle).
      ops.inner_products = columns * (2 + half + odd);
    } else {
      ops.inner_products = columns * 3 * (half + odd);
    }
  } else {
    ops.interp_calls = columns * nz;
    ops.voxel_updates = columns * nz;
    ops.inner_products =
        config_.reuse_uw ? columns * (2 + nz) : columns * 3 * nz;
  }
  return ops;
}

Volume backproject_all(const geo::CbctGeometry& geometry,
                       std::span<const Image2D> projections, BpConfig config) {
  Volume volume(geometry.nx, geometry.ny, geometry.nz, config.layout,
                /*zero_fill=*/true);
  Backprojector bp(geometry, config);
  const auto matrices = geo::make_all_projection_matrices(geometry);
  IFDK_REQUIRE(projections.size() == matrices.size(),
               "backproject_all expects one projection per gantry angle");
  bp.accumulate(volume, projections, matrices);
  return volume;
}

}  // namespace ifdk::bp
