// Serial reference for the iterative solvers.
//
// The textbook SART / OS-SART (Andersen & Kak 1984) and MLEM (Shepp & Vardi
// 1982) loops, on one thread and with no messages, over the same operators
// iterative::run_iterative uses: ForwardProjector for A, its ray_lengths
// for the row norms A*1, and the unweighted Algorithm-4 kernel
// (bp::Backprojector, distance_weight = false) for B and the column norms
// B*1 — here pinned to the scalar column backend, the bitwise reference
// every SIMD backend matches. B accumulates into kZMajor volumes and the
// estimate is kXMajor, as in run_iterative. Subset `sub` holds views
// s = sub, sub + subsets, ... in ascending order, which is the order one
// rank owns them in.
//
// On one rank run_iterative performs exactly these floating-point
// operations, so tests compare the two with memcmp-level equality; on
// larger grids the all-reduce reassociates the per-view sums and tests
// compare to a tolerance.
//
// serial_backproject_unweighted is the B operator the solvers ran before
// they moved onto the Algorithm-4 kernel: Algorithm 2's voxel loop without
// the 1/z^2 weight, X-major. It is kept as a tolerance reference for the
// kernel's unweighted mode (test_iterative's UnweightedBackprojection.*).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "backproj/backprojector.h"
#include "backproj/interp2.h"
#include "common/image.h"
#include "common/volume.h"
#include "geometry/cbct.h"
#include "iterative/params.h"
#include "projector/forward.h"

namespace ifdk {

/// Normalization floor of every division below (run_iterative's kEps).
inline constexpr float kIterOracleEps = 1e-6f;

/// The solvers' B operator on the scalar column backend: the unweighted
/// Algorithm-4 kernel, accumulating one view into a kZMajor volume.
class OracleB {
 public:
  explicit OracleB(const geo::CbctGeometry& g) : g_(g), kernel_(g, config()) {}

  void operator()(const Image2D& view, double beta, Volume& zmajor) const {
    const geo::Mat34 matrix = geo::make_projection_matrix(g_, beta);
    kernel_.accumulate(zmajor, std::span(&view, 1), std::span(&matrix, 1));
  }

  /// A zeroed volume in B's layout.
  Volume volume() const {
    return Volume(g_.nx, g_.ny, g_.nz, VolumeLayout::kZMajor);
  }

 private:
  static bp::BpConfig config() {
    bp::BpConfig cfg;
    cfg.distance_weight = false;
    cfg.simd_backend = simd::Backend::kScalar;
    return cfg;
  }

  geo::CbctGeometry g_;
  bp::Backprojector kernel_;
};

/// The solvers' former B operator: unweighted voxel-driven back-projection
/// of one view into a kXMajor volume (accumulates), Algorithm 2's loop with
/// the j/k terms of the three dot products hoisted per row.
inline void serial_backproject_unweighted(const geo::CbctGeometry& g,
                                          const Image2D& view, double beta,
                                          Volume& volume) {
  const auto m = geo::make_projection_matrix(g, beta).to_float();
  const float* img = view.data();
  for (std::size_t k = 0; k < g.nz; ++k) {
    const float fk = static_cast<float>(k);
    float* out = volume.slice(k);
    for (std::size_t j = 0; j < g.ny; ++j) {
      const float fj = static_cast<float>(j);
      const float xjk = m[1] * fj + m[2] * fk + m[3];
      const float yjk = m[5] * fj + m[6] * fk + m[7];
      const float zjk = m[9] * fj + m[10] * fk + m[11];
      float* row = out + j * g.nx;
      for (std::size_t i = 0; i < g.nx; ++i) {
        const float fi = static_cast<float>(i);
        const float x = m[0] * fi + xjk;
        const float y = m[4] * fi + yjk;
        const float z = m[8] * fi + zjk;
        const float f = 1.0f / z;
        row[i] += bp::interp2(img, g.nu, g.nv, x * f, y * f);
      }
    }
  }
}

/// Calls fn(i, j, k) for every voxel: the oracle's update loops read B's
/// kZMajor volumes and write the kXMajor estimate through Volume::at.
template <class Fn>
void for_each_ijk(const geo::CbctGeometry& g, Fn&& fn) {
  for (std::size_t k = 0; k < g.nz; ++k) {
    for (std::size_t j = 0; j < g.ny; ++j) {
      for (std::size_t i = 0; i < g.nx; ++i) fn(i, j, k);
    }
  }
}

/// SART (params.subsets == 1) or OS-SART: params.iterations sweeps of
/// relaxed, column-normalized corrections from a zero start.
inline Volume sart_oracle(const geo::CbctGeometry& g,
                          std::span<const Image2D> projections,
                          const iterative::IterParams& params) {
  const projector::ForwardProjector fp(g, params.step_fraction);
  const OracleB backproject(g);
  const auto subsets = static_cast<std::size_t>(params.subsets);

  std::vector<Image2D> ray_norm;  // A*1 per view
  ray_norm.reserve(g.np);
  for (std::size_t s = 0; s < g.np; ++s) {
    ray_norm.push_back(fp.ray_lengths(g.beta(s)));
  }
  Image2D ones_img(g.nu, g.nv, /*zero_fill=*/false);
  ones_img.fill(1.0f);
  std::vector<Volume> vox_norm;  // B_subset*1 per subset
  vox_norm.reserve(subsets);
  for (std::size_t sub = 0; sub < subsets; ++sub) {
    Volume norm = backproject.volume();
    for (std::size_t s = sub; s < g.np; s += subsets) {
      backproject(ones_img, g.beta(s), norm);
    }
    vox_norm.push_back(std::move(norm));
  }

  Volume x(g.nx, g.ny, g.nz);
  Image2D resid(g.nu, g.nv, /*zero_fill=*/false);
  for (int it = 0; it < params.iterations; ++it) {
    for (std::size_t sub = 0; sub < subsets; ++sub) {
      Volume update = backproject.volume();
      for (std::size_t s = sub; s < g.np; s += subsets) {
        const Image2D fwd = fp.project(x, g.beta(s));
        for (std::size_t n = 0; n < resid.pixels(); ++n) {
          const float norm = std::max(ray_norm[s].data()[n], kIterOracleEps);
          resid.data()[n] = (projections[s].data()[n] - fwd.data()[n]) / norm;
        }
        backproject(resid, g.beta(s), update);
      }
      const Volume& norm = vox_norm[sub];
      for_each_ijk(g, [&](std::size_t i, std::size_t j, std::size_t k) {
        const float denom = std::max(norm.at(i, j, k), kIterOracleEps);
        x.at(i, j, k) +=
            static_cast<float>(params.lambda) * update.at(i, j, k) / denom;
      });
    }
  }
  return x;
}

/// MLEM: params.iterations multiplicative updates from an all-ones start.
inline Volume mlem_oracle(const geo::CbctGeometry& g,
                          std::span<const Image2D> projections,
                          const iterative::IterParams& params) {
  const projector::ForwardProjector fp(g, params.step_fraction);
  const OracleB backproject(g);

  Image2D ones_img(g.nu, g.nv, /*zero_fill=*/false);
  ones_img.fill(1.0f);
  Volume sensitivity = backproject.volume();  // B*1
  for (std::size_t s = 0; s < g.np; ++s) {
    backproject(ones_img, g.beta(s), sensitivity);
  }

  Volume x(g.nx, g.ny, g.nz, VolumeLayout::kXMajor, /*zero_fill=*/false);
  x.fill(1.0f);
  Image2D ratio(g.nu, g.nv, /*zero_fill=*/false);
  for (int it = 0; it < params.iterations; ++it) {
    Volume ratio_bp = backproject.volume();
    for (std::size_t s = 0; s < g.np; ++s) {
      const Image2D fwd = fp.project(x, g.beta(s));
      for (std::size_t n = 0; n < ratio.pixels(); ++n) {
        ratio.data()[n] = projections[s].data()[n] /
                          std::max(fwd.data()[n], kIterOracleEps);
      }
      backproject(ratio, g.beta(s), ratio_bp);
    }
    for_each_ijk(g, [&](std::size_t i, std::size_t j, std::size_t k) {
      x.at(i, j, k) *= ratio_bp.at(i, j, k) /
                       std::max(sensitivity.at(i, j, k), kIterOracleEps);
    });
  }
  return x;
}

/// Projection-space residual |A volume - p| / sqrt(N) over all views.
inline double residual_rmse_oracle(const geo::CbctGeometry& g,
                                   const Volume& volume,
                                   std::span<const Image2D> projections) {
  const projector::ForwardProjector fp(g);
  double acc = 0;
  std::size_t count = 0;
  for (std::size_t s = 0; s < g.np; ++s) {
    const Image2D fwd = fp.project(volume, g.beta(s));
    for (std::size_t n = 0; n < fwd.pixels(); ++n) {
      const double d = fwd.data()[n] - projections[s].data()[n];
      acc += d * d;
      ++count;
    }
  }
  return std::sqrt(acc / static_cast<double>(count));
}

}  // namespace ifdk
