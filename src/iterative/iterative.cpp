#include "iterative/iterative.h"

#include <algorithm>
#include <cmath>

#include "backproj/interp2.h"
#include "common/error.h"
#include "projector/forward.h"

namespace ifdk::iterative {

namespace {

constexpr float kEps = 1e-6f;

}  // namespace

void backproject_unweighted(const geo::CbctGeometry& geometry,
                            const Image2D& view, double beta, Volume& volume,
                            ThreadPool* pool) {
  IFDK_REQUIRE(volume.layout() == VolumeLayout::kXMajor,
               "iterative solvers use the standard X-major layout");
  IFDK_REQUIRE(view.width() == geometry.nu && view.height() == geometry.nv,
               "view size does not match the geometry");
  const geo::Mat34 p = geo::make_projection_matrix(geometry, beta);
  const auto m = p.to_float();
  const float* img = view.data();
  const std::size_t nu = geometry.nu;
  const std::size_t nv = geometry.nv;

  auto slice_task = [&](std::size_t k) {
    const float fk = static_cast<float>(k);
    float* out = volume.slice(k);
    for (std::size_t j = 0; j < geometry.ny; ++j) {
      const float fj = static_cast<float>(j);
      // The j/k terms of the three dot products are constant along the row.
      const float xjk = m[1] * fj + m[2] * fk + m[3];
      const float yjk = m[5] * fj + m[6] * fk + m[7];
      const float zjk = m[9] * fj + m[10] * fk + m[11];
      float* row = out + j * geometry.nx;
      for (std::size_t i = 0; i < geometry.nx; ++i) {
        const float fi = static_cast<float>(i);
        const float x = m[0] * fi + xjk;
        const float y = m[4] * fi + yjk;
        const float z = m[8] * fi + zjk;
        const float f = 1.0f / z;
        row[i] += bp::interp2(img, nu, nv, x * f, y * f);
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, geometry.nz, slice_task);
  } else {
    for (std::size_t k = 0; k < geometry.nz; ++k) slice_task(k);
  }
}

Volume sart(const geo::CbctGeometry& geometry,
            std::span<const Image2D> projections, const IterOptions& options) {
  geometry.validate();
  IFDK_REQUIRE(projections.size() == geometry.np,
               "one projection per gantry angle is required");
  IFDK_REQUIRE(options.subsets >= 1, "subsets must be >= 1");
  IFDK_REQUIRE(options.lambda > 0 && options.lambda < 2,
               "SART relaxation must lie in (0, 2)");

  projector::ForwardOptions fopts;
  fopts.step_fraction = options.step_fraction;
  fopts.pool = options.pool;
  projector::ForwardProjector fp(geometry, fopts);

  // Row normalization: ray lengths through the volume, A * 1.
  std::vector<Image2D> ray_norm;
  ray_norm.reserve(geometry.np);
  for (std::size_t s = 0; s < geometry.np; ++s) {
    ray_norm.push_back(fp.ray_lengths(geometry.beta(s)));
  }

  // Column normalization per subset: B_subset * 1.
  Image2D ones_img(geometry.nu, geometry.nv, /*zero_fill=*/false);
  ones_img.fill(1.0f);
  const int subsets = options.subsets;
  std::vector<Volume> vox_norm;
  vox_norm.reserve(static_cast<std::size_t>(subsets));
  for (int sub = 0; sub < subsets; ++sub) {
    Volume norm(geometry.nx, geometry.ny, geometry.nz);
    for (std::size_t s = static_cast<std::size_t>(sub); s < geometry.np;
         s += static_cast<std::size_t>(subsets)) {
      backproject_unweighted(geometry, ones_img, geometry.beta(s), norm,
                             options.pool);
    }
    vox_norm.push_back(std::move(norm));
  }

  Volume x(geometry.nx, geometry.ny, geometry.nz);
  Image2D resid(geometry.nu, geometry.nv, /*zero_fill=*/false);
  for (int it = 0; it < options.iterations; ++it) {
    for (int sub = 0; sub < subsets; ++sub) {
      Volume update(geometry.nx, geometry.ny, geometry.nz);
      for (std::size_t s = static_cast<std::size_t>(sub); s < geometry.np;
           s += static_cast<std::size_t>(subsets)) {
        const Image2D fwd = fp.project(x, geometry.beta(s));
        for (std::size_t n = 0; n < resid.pixels(); ++n) {
          const float norm = std::max(ray_norm[s].data()[n], kEps);
          resid.data()[n] =
              (projections[s].data()[n] - fwd.data()[n]) / norm;
        }
        backproject_unweighted(geometry, resid, geometry.beta(s), update,
                               options.pool);
      }
      const Volume& norm = vox_norm[static_cast<std::size_t>(sub)];
      for (std::size_t n = 0; n < x.voxels(); ++n) {
        const float denom = std::max(norm.data()[n], kEps);
        x.data()[n] += static_cast<float>(options.lambda) *
                       update.data()[n] / denom;
      }
    }
    if (options.on_iteration) options.on_iteration(it, x);
  }
  return x;
}

Volume art(const geo::CbctGeometry& geometry,
           std::span<const Image2D> projections, IterOptions options) {
  // ART = OS-SART with one view per subset (a strictly sequential sweep);
  // the small per-view steps want a gentler relaxation by default.
  options.subsets = static_cast<int>(geometry.np);
  return sart(geometry, projections, options);
}

Volume mlem(const geo::CbctGeometry& geometry,
            std::span<const Image2D> projections, const IterOptions& options) {
  geometry.validate();
  IFDK_REQUIRE(projections.size() == geometry.np,
               "one projection per gantry angle is required");
  for (const auto& p : projections) {
    for (std::size_t n = 0; n < p.pixels(); ++n) {
      IFDK_REQUIRE(p.data()[n] >= 0.0f, "MLEM requires non-negative data");
    }
  }

  projector::ForwardOptions fopts;
  fopts.step_fraction = options.step_fraction;
  fopts.pool = options.pool;
  projector::ForwardProjector fp(geometry, fopts);

  // Sensitivity image: B applied to all-ones views (A^T 1).
  Image2D ones_img(geometry.nu, geometry.nv, /*zero_fill=*/false);
  ones_img.fill(1.0f);
  Volume sensitivity(geometry.nx, geometry.ny, geometry.nz);
  for (std::size_t s = 0; s < geometry.np; ++s) {
    backproject_unweighted(geometry, ones_img, geometry.beta(s), sensitivity,
                           options.pool);
  }

  Volume x(geometry.nx, geometry.ny, geometry.nz, VolumeLayout::kXMajor,
           /*zero_fill=*/false);
  x.fill(1.0f);  // strictly positive start (multiplicative updates)
  Image2D ratio(geometry.nu, geometry.nv, /*zero_fill=*/false);
  for (int it = 0; it < options.iterations; ++it) {
    Volume ratio_bp(geometry.nx, geometry.ny, geometry.nz);
    for (std::size_t s = 0; s < geometry.np; ++s) {
      const Image2D fwd = fp.project(x, geometry.beta(s));
      for (std::size_t n = 0; n < ratio.pixels(); ++n) {
        ratio.data()[n] =
            projections[s].data()[n] / std::max(fwd.data()[n], kEps);
      }
      backproject_unweighted(geometry, ratio, geometry.beta(s), ratio_bp,
                             options.pool);
    }
    for (std::size_t n = 0; n < x.voxels(); ++n) {
      x.data()[n] *= ratio_bp.data()[n] /
                     std::max(sensitivity.data()[n], kEps);
    }
    if (options.on_iteration) options.on_iteration(it, x);
  }
  return x;
}

double residual_rmse(const geo::CbctGeometry& geometry, const Volume& volume,
                     std::span<const Image2D> projections,
                     double step_fraction, ThreadPool* pool) {
  projector::ForwardOptions fopts;
  fopts.step_fraction = step_fraction;
  fopts.pool = pool;
  projector::ForwardProjector fp(geometry, fopts);
  double acc = 0;
  std::size_t count = 0;
  for (std::size_t s = 0; s < geometry.np; ++s) {
    const Image2D fwd = fp.project(volume, geometry.beta(s));
    for (std::size_t n = 0; n < fwd.pixels(); ++n) {
      const double d = fwd.data()[n] - projections[s].data()[n];
      acc += d * d;
      ++count;
    }
  }
  return std::sqrt(acc / static_cast<double>(count));
}

}  // namespace ifdk::iterative
