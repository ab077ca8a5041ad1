#include "iterative/iterative.h"

#include <span>

#include "backproj/backprojector.h"

namespace ifdk::iterative {

void backproject_unweighted(const geo::CbctGeometry& geometry,
                            const Image2D& view, double beta, Volume& volume) {
  bp::BpConfig config;
  config.distance_weight = false;
  const bp::Backprojector kernel(geometry, config);
  const geo::Mat34 matrix = geo::make_projection_matrix(geometry, beta);
  if (volume.layout() == VolumeLayout::kZMajor) {
    kernel.accumulate(volume, std::span(&view, 1), std::span(&matrix, 1));
    return;
  }
  Volume zmajor = volume.reshaped(VolumeLayout::kZMajor);
  kernel.accumulate(zmajor, std::span(&view, 1), std::span(&matrix, 1));
  volume = zmajor.reshaped(VolumeLayout::kXMajor);
}

}  // namespace ifdk::iterative
