// Serial bitwise oracle for distributed FDK.
//
// Replays, on one thread and with no messages, the exact floating-point
// operations the R x C distributed pipeline performs for one volume:
//
//   * every view is ramp-filtered once (FilterEngine::apply);
//   * rank (row, col) back-projects gather round t as ONE accumulate call
//     over that round's R images in row order, into its zero-filled
//     slab pair with k_begin = row * slab_h;
//   * each slab pair is transposed to slice-major (extract_zmajor_slice);
//   * the row reduce folds the C partials in ascending column order
//     (column 0 copied, the others added), which is what minimpi's ireduce
//     root does for every segment, so the segment size cannot matter;
//   * the row root's slices land at plan.global_slice.
//
// Tests compare run_distributed / run_streaming against this with memcmp-
// level equality, so any change to the runtime's accumulation order shows
// up as a bit difference here.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "backproj/backprojector.h"
#include "common/image.h"
#include "common/volume.h"
#include "engine/engine.h"
#include "filter/filter_engine.h"
#include "geometry/cbct.h"
#include "ifdk/plan.h"

namespace ifdk {

/// The X-major volume the distributed pipeline writes for `projections`
/// under `options` (grid, bp_batch, SIMD backend and filter options are
/// honoured; reduce_segment_floats is irrelevant by construction).
inline Volume distributed_fdk_oracle(const geo::CbctGeometry& g,
                                     std::span<const Image2D> projections,
                                     const IfdkOptions& options) {
  const DecompositionPlan plan = DecompositionPlan::make(g, options);
  const filter::FilterEngine filter_engine(g, options.filter);
  const auto matrices = geo::make_all_projection_matrices(g);

  // Gather round t of column col: its R filtered views in row order.
  const auto round_index = [&](int col, std::size_t t) {
    return static_cast<std::size_t>(col) * plan.rounds + t;
  };
  std::vector<std::vector<Image2D>> round_images(
      static_cast<std::size_t>(plan.grid.columns) * plan.rounds);
  std::vector<std::vector<geo::Mat34>> round_mats(round_images.size());
  for (int col = 0; col < plan.grid.columns; ++col) {
    for (std::size_t t = 0; t < plan.rounds; ++t) {
      for (int r = 0; r < plan.grid.rows; ++r) {
        const std::size_t s = plan.owned_projection(r, col, t);
        Image2D view(g.nu, g.nv, /*zero_fill=*/false);
        std::copy(projections[s].data(),
                  projections[s].data() + projections[s].pixels(),
                  view.data());
        filter_engine.apply(view);
        round_images[round_index(col, t)].push_back(std::move(view));
        round_mats[round_index(col, t)].push_back(matrices[s]);
      }
    }
  }

  const std::size_t depth = 2 * plan.slab_h;
  Volume out(g.nx, g.ny, g.nz, VolumeLayout::kXMajor, /*zero_fill=*/true);
  std::vector<float> partial(plan.slab_floats());
  std::vector<float> folded(plan.slab_floats());
  for (int row = 0; row < plan.grid.rows; ++row) {
    bp::BpConfig cfg;
    cfg.batch = options.bp_batch;
    cfg.simd_backend = options.simd_backend;
    cfg.k_begin = static_cast<std::size_t>(row) * plan.slab_h;
    cfg.k_half = plan.slab_h;
    const bp::Backprojector backprojector(g, cfg);
    for (int col = 0; col < plan.grid.columns; ++col) {
      Volume slab(g.nx, g.ny, depth, VolumeLayout::kZMajor, /*zero_fill=*/true);
      for (std::size_t t = 0; t < plan.rounds; ++t) {
        backprojector.accumulate(slab, round_images[round_index(col, t)],
                                 round_mats[round_index(col, t)]);
      }
      for (std::size_t k = 0; k < depth; ++k) {
        engine::extract_zmajor_slice(slab.data(), g.nx, g.ny, depth, k,
                                     partial.data() + k * plan.slice_px);
      }
      if (col == 0) {
        folded = partial;
      } else {
        for (std::size_t i = 0; i < folded.size(); ++i) folded[i] += partial[i];
      }
    }
    for (std::size_t k = 0; k < depth; ++k) {
      const float* src = folded.data() + k * plan.slice_px;
      std::copy(src, src + plan.slice_px,
                out.slice(plan.global_slice(row, k)));
    }
  }
  return out;
}

}  // namespace ifdk
