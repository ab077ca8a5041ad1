#include "projector/forward.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace ifdk::projector {

namespace {

/// The samples of one ray that lie on the index box (see kFaceTolerance):
/// sample m sits at fractional voxel index a + b*m, for m in [first, last].
struct RaySpan {
  double a[3];
  double b[3];
  std::ptrdiff_t first;
  std::ptrdiff_t last;

  /// Fractional index of sample m (an integer) on `axis`: the one
  /// expression both the clip and the sample loop evaluate, so they agree
  /// on every bit.
  double index(int axis, double m) const { return a[axis] + b[axis] * m; }
};

/// One view's rays, set up once per gantry angle. Axis order is (x, y, z)
/// in world millimetres and (i, j, k) in voxel indices; world -> index is
/// the inverse of M0: i = x/dx + ci, j = -y/dy + cj, k = -z/dz + ck.
class ViewRays {
 public:
  ViewRays(const geo::CbctGeometry& g, double step, double beta)
      : step_(step) {
    const double s = std::sin(beta);
    const double c = std::cos(beta);
    const double n[3] = {static_cast<double>(g.nx),
                         static_cast<double>(g.ny),
                         static_cast<double>(g.nz)};
    const double pitch[3] = {g.dx, g.dy, g.dz};
    const double src[3] = {-g.d * s, -g.d * c, 0.0};  // geo::source_position
    for (int axis = 0; axis < 3; ++axis) {
      half_[axis] = 0.5 * n[axis] * pitch[axis];
      high_face_[axis] = n[axis] - 1.0 + kFaceTolerance;
      to_index_[axis] = (axis == 0 ? 1.0 : -1.0) / pitch[axis];
      src_[axis] = src[axis];
      src_index_[axis] = src[axis] * to_index_[axis] + 0.5 * (n[axis] - 1.0);
    }
    // Source -> pixel (u, v) is dir0 + u*dir_u + v*dir_v: the detector sits
    // at gantry ((u - cu) du, (v - cv) dv, D), rotated by -beta about Z.
    const double cu = (static_cast<double>(g.nu) - 1.0) / 2.0;
    const double cv = (static_cast<double>(g.nv) - 1.0) / 2.0;
    dir_u_[0] = g.du * c;
    dir_u_[1] = -g.du * s;
    dir_u_[2] = 0.0;
    dir_v_[0] = 0.0;
    dir_v_[1] = 0.0;
    dir_v_[2] = -g.dv;
    dir0_[0] = -cu * dir_u_[0] + g.D * s;
    dir0_[1] = -cu * dir_u_[1] + g.D * c;
    dir0_[2] = -cv * dir_v_[2];
  }

  /// Sets up the ray through detector pixel (u, v); false when none of its
  /// samples lands on the index box.
  bool trace(std::size_t u, std::size_t v, RaySpan& ray) const {
    double d[3];
    for (int axis = 0; axis < 3; ++axis) {
      d[axis] = dir0_[axis] + static_cast<double>(u) * dir_u_[axis] +
                static_cast<double>(v) * dir_v_[axis];
    }
    const double len = std::sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
    for (double& x : d) x *= 1.0 / len;

    // Chord through the world bounding box, as the slab intersection.
    double t0 = 0.0, t1 = len;
    for (int axis = 0; axis < 3; ++axis) {
      if (d[axis] == 0.0) {
        if (std::abs(src_[axis]) > half_[axis]) return false;
        continue;
      }
      double ta = (-half_[axis] - src_[axis]) / d[axis];
      double tb = (half_[axis] - src_[axis]) / d[axis];
      if (ta > tb) std::swap(ta, tb);
      t0 = std::max(t0, ta);
      t1 = std::min(t1, tb);
    }
    if (t0 >= t1) return false;
    // Samples t0 + (m + 1/2) * step < t1.
    const double count = std::ceil((t1 - t0) / step_ - 0.5);
    if (count < 1.0) return false;

    for (int axis = 0; axis < 3; ++axis) {
      const double e = d[axis] * to_index_[axis];
      ray.a[axis] = src_index_[axis] + e * (t0 + 0.5 * step_);
      ray.b[axis] = e * step_;
    }

    // Closed-form clip of m against the index box, one sample of slack on
    // each end for rounding, then trimmed with the inside predicate.
    double lo = 0.0, hi = count - 1.0;
    for (int axis = 0; axis < 3; ++axis) {
      const double a = ray.a[axis], b = ray.b[axis];
      if (b == 0.0) {
        if (!(a >= kLowFace && a <= high_face_[axis])) return false;
        continue;
      }
      double m0 = (kLowFace - a) / b;
      double m1 = (high_face_[axis] - a) / b;
      if (m0 > m1) std::swap(m0, m1);
      lo = std::max(lo, m0);
      hi = std::min(hi, m1);
    }
    if (lo > hi + 1.0) return false;
    ray.first = std::max<std::ptrdiff_t>(
        0, static_cast<std::ptrdiff_t>(std::ceil(lo)) - 1);
    ray.last = std::min(static_cast<std::ptrdiff_t>(count) - 1,
                        static_cast<std::ptrdiff_t>(std::floor(hi)) + 1);
    while (ray.first <= ray.last && !inside(ray, ray.first)) ++ray.first;
    while (ray.first <= ray.last && !inside(ray, ray.last)) --ray.last;
    if (ray.first > ray.last) return false;
    // The sample loop reads without checks between these two samples.
    IFDK_ASSERT(inside(ray, ray.first) && inside(ray, ray.last));
    return true;
  }

  double step() const { return step_; }

 private:
  bool inside(const RaySpan& ray, std::ptrdiff_t m) const {
    for (int axis = 0; axis < 3; ++axis) {
      const double f = ray.index(axis, static_cast<double>(m));
      if (!(f >= kLowFace && f <= high_face_[axis])) return false;
    }
    return true;
  }

  static constexpr double kLowFace = -kFaceTolerance;

  double step_;
  double half_[3];       // world bounding box half extents
  double high_face_[3];  // n - 1 + kFaceTolerance
  double to_index_[3];   // world -> index scale (signed)
  double src_[3];        // source, world
  double src_index_[3];  // source, fractional index
  double dir0_[3], dir_u_[3], dir_v_[3];
};

/// Renders one view: pixel (u, v) gets ray_value(ray) when its ray has a
/// sample on the index box and stays 0 otherwise.
template <class RayValue>
Image2D render(const geo::CbctGeometry& g, const ForwardOptions& options,
               double beta, const RayValue& ray_value) {
  Image2D img(g.nu, g.nv, /*zero_fill=*/true);
  const ViewRays view(g, options.step_fraction * std::min({g.dx, g.dy, g.dz}),
                      beta);
  auto row_task = [&](std::size_t v) {
    float* row = img.row(v);
    RaySpan ray;
    for (std::size_t u = 0; u < g.nu; ++u) {
      if (view.trace(u, v, ray)) {
        row[u] = static_cast<float>(ray_value(ray) * view.step());
      }
    }
  };
  if (options.pool != nullptr) {
    options.pool->parallel_for(0, g.nv, row_task);
  } else {
    for (std::size_t v = 0; v < g.nv; ++v) row_task(v);
  }
  return img;
}

}  // namespace

ForwardProjector::ForwardProjector(const geo::CbctGeometry& geometry,
                                   ForwardOptions options)
    : geometry_(geometry), options_(options) {
  geometry_.validate();
  IFDK_REQUIRE(options_.step_fraction > 0 && options_.step_fraction <= 1.0,
               "step_fraction must be in (0, 1]");
}

Image2D ForwardProjector::project(const Volume& volume, double beta) const {
  IFDK_REQUIRE(volume.layout() == VolumeLayout::kXMajor,
               "forward projection expects the standard X-major layout");
  IFDK_REQUIRE(volume.nx() == geometry_.nx && volume.ny() == geometry_.ny &&
                   volume.nz() == geometry_.nz,
               "volume does not match the geometry");
  const auto nx = static_cast<std::ptrdiff_t>(volume.nx());
  const auto ny = static_cast<std::ptrdiff_t>(volume.ny());
  const auto nz = static_cast<std::ptrdiff_t>(volume.nz());
  const std::ptrdiff_t sj = nx, sk = nx * ny;  // X-major strides (si = 1)
  // The base index clamps to n-2, so its +1 neighbour is always in range
  // (and carries weight exactly 1 on the far face); a 1-voxel axis has base
  // 0 and a +1 stride of 0.
  const std::ptrdiff_t mi = std::max<std::ptrdiff_t>(nx - 2, 0);
  const std::ptrdiff_t mj = std::max<std::ptrdiff_t>(ny - 2, 0);
  const std::ptrdiff_t mk = std::max<std::ptrdiff_t>(nz - 2, 0);
  const std::ptrdiff_t oi = nx > 1 ? 1 : 0;
  const std::ptrdiff_t oj = ny > 1 ? sj : 0;
  const std::ptrdiff_t ok = nz > 1 ? sk : 0;
  const float* data = volume.data();

  return render(geometry_, options_, beta, [=](const RaySpan& ray) {
    // m counts in double: integers are exact, so index(axis, m) is the same
    // expression, bit for bit, that trace() clipped with.
    double acc = 0.0;
    const double last = static_cast<double>(ray.last);
    for (double m = static_cast<double>(ray.first); m <= last; m += 1.0) {
      const double fi = ray.index(0, m);
      const double fj = ray.index(1, m);
      const double fk = ray.index(2, m);
      const std::ptrdiff_t i0 = std::min(static_cast<std::ptrdiff_t>(fi), mi);
      const std::ptrdiff_t j0 = std::min(static_cast<std::ptrdiff_t>(fj), mj);
      const std::ptrdiff_t k0 = std::min(static_cast<std::ptrdiff_t>(fk), mk);
      const float di = static_cast<float>(fi - static_cast<double>(i0));
      const float dj = static_cast<float>(fj - static_cast<double>(j0));
      const float dk = static_cast<float>(fk - static_cast<double>(k0));
      const float* p = data + i0 + j0 * sj + k0 * sk;
      // v0 + (v1 - v0) * w: exactly 1 on an all-ones volume for any w,
      // which is what makes ray_lengths() bitwise equal to project(ones).
      const float c00 = p[0] + (p[oi] - p[0]) * di;
      const float c10 = p[oj] + (p[oj + oi] - p[oj]) * di;
      const float c01 = p[ok] + (p[ok + oi] - p[ok]) * di;
      const float c11 = p[ok + oj] + (p[ok + oj + oi] - p[ok + oj]) * di;
      const float c0 = c00 + (c10 - c00) * dj;
      const float c1 = c01 + (c11 - c01) * dj;
      acc += c0 + (c1 - c0) * dk;
    }
    return acc;
  });
}

Image2D ForwardProjector::ray_lengths(double beta) const {
  return render(geometry_, options_, beta, [](const RaySpan& ray) {
    return static_cast<double>(ray.last - ray.first + 1);
  });
}

}  // namespace ifdk::projector
