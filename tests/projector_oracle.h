// Serial reference for the forward projector.
//
// The straightforward ray marcher ForwardProjector::project is measured
// against: per pixel it builds the source->pixel ray from
// geo::detector_pixel_position, clips it against the volume's world
// bounding box, and walks t = t0 + step/2, t0 + 3*step/2, ... < t1 by
// accumulation, range-checking every sample in double precision. The
// trilinear sampler is defined on the closed index box [0, n-1]^3, widened
// by projector::kFaceTolerance (the +1 neighbour clamps, so its weight never
// reads past the edge), and is exactly zero outside it.
//
// The production projector samples the same grid with the same border
// semantics; tests compare the two to a tolerance (the index arithmetic
// rounds differently) and require an identical zero pattern.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/image.h"
#include "common/volume.h"
#include "geometry/cbct.h"
#include "projector/forward.h"

namespace ifdk {

/// Trilinear sample of `volume` at fractional voxel index (i, j, k);
/// returns 0 outside the (tolerance-widened) closed index box.
inline float trilinear_sample_oracle(const Volume& volume, double i, double j,
                                     double k) {
  const auto nx = static_cast<std::ptrdiff_t>(volume.nx());
  const auto ny = static_cast<std::ptrdiff_t>(volume.ny());
  const auto nz = static_cast<std::ptrdiff_t>(volume.nz());
  const double tol = projector::kFaceTolerance;
  if (i < -tol || j < -tol || k < -tol ||
      i > static_cast<double>(nx - 1) + tol ||
      j > static_cast<double>(ny - 1) + tol ||
      k > static_cast<double>(nz - 1) + tol) {
    return 0.0f;
  }
  const auto i0 = static_cast<std::ptrdiff_t>(i);
  const auto j0 = static_cast<std::ptrdiff_t>(j);
  const auto k0 = static_cast<std::ptrdiff_t>(k);
  const float di = static_cast<float>(i - static_cast<double>(i0));
  const float dj = static_cast<float>(j - static_cast<double>(j0));
  const float dk = static_cast<float>(k - static_cast<double>(k0));

  // Clamp-to-edge neighbours: the +1 weight is zero exactly on the border.
  const std::ptrdiff_t i1 = i0 + 1 < nx ? i0 + 1 : i0;
  const std::ptrdiff_t j1 = j0 + 1 < ny ? j0 + 1 : j0;
  const std::ptrdiff_t k1 = k0 + 1 < nz ? k0 + 1 : k0;

  auto v = [&](std::ptrdiff_t a, std::ptrdiff_t b, std::ptrdiff_t c) {
    return volume.at(static_cast<std::size_t>(a), static_cast<std::size_t>(b),
                     static_cast<std::size_t>(c));
  };
  const float c00 = v(i0, j0, k0) * (1 - di) + v(i1, j0, k0) * di;
  const float c10 = v(i0, j1, k0) * (1 - di) + v(i1, j1, k0) * di;
  const float c01 = v(i0, j0, k1) * (1 - di) + v(i1, j0, k1) * di;
  const float c11 = v(i0, j1, k1) * (1 - di) + v(i1, j1, k1) * di;
  const float c0 = c00 * (1 - dj) + c10 * dj;
  const float c1 = c01 * (1 - dj) + c11 * dj;
  return c0 * (1 - dk) + c1 * dk;
}

/// The cone-beam projection of the X-major `volume` at gantry angle beta,
/// sampled at step_fraction * min_pitch.
inline Image2D forward_project_oracle(const geo::CbctGeometry& g,
                                      const Volume& volume, double beta,
                                      double step_fraction) {
  Image2D img(g.nu, g.nv, /*zero_fill=*/true);
  const geo::Vec3 src = geo::source_position(g, beta);
  // Volume bounding box in world millimetres.
  const double hx = 0.5 * static_cast<double>(g.nx) * g.dx;
  const double hy = 0.5 * static_cast<double>(g.ny) * g.dy;
  const double hz = 0.5 * static_cast<double>(g.nz) * g.dz;
  const double step = step_fraction * std::min({g.dx, g.dy, g.dz});
  // World -> fractional voxel index (inverse of M0):
  const double ci = (static_cast<double>(g.nx) - 1.0) / 2.0;
  const double cj = (static_cast<double>(g.ny) - 1.0) / 2.0;
  const double ck = (static_cast<double>(g.nz) - 1.0) / 2.0;

  for (std::size_t v = 0; v < g.nv; ++v) {
    for (std::size_t u = 0; u < g.nu; ++u) {
      const geo::Vec3 pix = geo::detector_pixel_position(
          g, beta, static_cast<double>(u), static_cast<double>(v));
      const geo::Vec3 dir = pix - src;
      const double len = dir.norm();
      const geo::Vec3 d = dir * (1.0 / len);

      // Slab intersection with the bounding box.
      double t0 = 0.0, t1 = len;
      auto clip = [&](double origin, double direction, double half) {
        if (direction == 0.0) {
          if (std::abs(origin) > half) t0 = t1 + 1.0;  // miss
          return;
        }
        double ta = (-half - origin) / direction;
        double tb = (half - origin) / direction;
        if (ta > tb) std::swap(ta, tb);
        t0 = std::max(t0, ta);
        t1 = std::min(t1, tb);
      };
      clip(src.x, d.x, hx);
      clip(src.y, d.y, hy);
      clip(src.z, d.z, hz);
      if (t0 >= t1) continue;

      double acc = 0.0;
      for (double t = t0 + 0.5 * step; t < t1; t += step) {
        const geo::Vec3 p = src + d * t;
        const double fi = p.x / g.dx + ci;
        const double fj = -p.y / g.dy + cj;
        const double fk = -p.z / g.dz + ck;
        acc += trilinear_sample_oracle(volume, fi, fj, fk);
      }
      img.at(u, v) = static_cast<float>(acc * step);
    }
  }
  return img;
}

}  // namespace ifdk
