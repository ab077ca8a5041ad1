#include "iterative/iterative.h"

#include "backproj/interp2.h"
#include "common/error.h"

namespace ifdk::iterative {

void backproject_unweighted(const geo::CbctGeometry& geometry,
                            const Image2D& view, double beta, Volume& volume) {
  IFDK_REQUIRE(volume.layout() == VolumeLayout::kXMajor,
               "iterative solvers use the standard X-major layout");
  IFDK_REQUIRE(view.width() == geometry.nu && view.height() == geometry.nv,
               "view size does not match the geometry");
  const geo::Mat34 p = geo::make_projection_matrix(geometry, beta);
  const auto m = p.to_float();
  const float* img = view.data();
  const std::size_t nu = geometry.nu;
  const std::size_t nv = geometry.nv;

  for (std::size_t k = 0; k < geometry.nz; ++k) {
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
  }
}

}  // namespace ifdk::iterative
