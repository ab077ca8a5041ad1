// Back-projection kernels: the standard scheme of Algorithm 2 (as
// implemented by RTK / RabbitCT / OSCaR) and the paper's proposed
// Algorithm 4, which cuts the projection-computation cost to 1/6 via
// Theorems 1-3 and improves locality via transposed projections and a
// k-major (Z-contiguous) volume layout.
//
// The proposed kernel is configurable so every optimization can be ablated
// independently (symmetry, u/Wdis reuse, projection transpose); the named
// Table-3 kernel variants map onto these configurations.
//
// All kernels *accumulate* into the target volume (I += ...), which is what
// lets the distributed framework batch projections and later MPI-Reduce
// partial volumes (Section 4.1).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "backproj/simd/column_kernel.h"
#include "common/image.h"
#include "common/thread_pool.h"
#include "common/volume.h"
#include "geometry/cbct.h"

namespace ifdk::bp {

/// Work performed by a kernel run, for the paper's 1/6 cost claim. Computed
/// from the loop structure (the loops are deterministic), not from counters
/// in the hot path. Models the serial (single-slab) schedule: when a thread
/// pool tiles the k loop into cache slabs, the two k-independent hoisted
/// products are recomputed once per slab, which does not change any value
/// and adds only O(columns * slabs) work.
struct OpCounts {
  std::uint64_t inner_products = 0;  ///< 4-wide dot products with P rows
  std::uint64_t interp_calls = 0;    ///< bilinear fetches (Algorithm 3)
  std::uint64_t voxel_updates = 0;   ///< I(...) += terms

  /// Inner products per voxel update; 3.0 for Algorithm 2, -> 0.5 for
  /// Algorithm 4 as Nz grows (the paper's factor-6 reduction).
  double inner_products_per_update() const {
    return voxel_updates == 0
               ? 0.0
               : static_cast<double>(inner_products) /
                     static_cast<double>(voxel_updates);
  }
};

/// The five kernel flavours of paper Table 3.
enum class KernelVariant { kRtk32, kBpTex, kTexTran, kBpL1, kL1Tran };

const char* to_string(KernelVariant variant);

struct BpConfig {
  /// Theorem-1 half-Nz symmetric update (Algorithm 4 lines 11/15-17).
  bool symmetry = true;
  /// Theorems 2/3: hoist u and Wdis out of the k loop (lines 7-10). When
  /// false the kernel recomputes all three inner products per voxel like
  /// Algorithm 2 (but keeps the Algorithm-4 loop order).
  bool reuse_uw = true;
  /// Algorithm 4 line 3: transpose Q so the V axis is contiguous.
  bool transpose_projections = true;
  /// FDK's distance weight Wdis = 1/z^2 (Eq. 5). When false every sample is
  /// added with weight 1: the plain B operator of the iterative solvers,
  /// which normalize explicitly (B*1) instead. Only the hoisted per-column
  /// factor changes (1.0f * x == x exactly), so every SIMD backend stays
  /// bitwise equal to scalar. Requires reuse_uw and kZMajor.
  bool distance_weight = true;
  /// Volume layout written by the kernel.
  VolumeLayout layout = VolumeLayout::kZMajor;
  /// Projections back-projected per pass (the paper and RTK use 32; mirrors
  /// the CUDA-warp batch of Listing 1).
  std::size_t batch = 32;
  /// When set, the kernel tiles its iteration space into cache-blocked
  /// (i-block × k-slab) tasks (see backproj/slab_schedule.h) and runs them
  /// on the pool; results are bitwise identical to the serial schedule.
  ThreadPool* pool = nullptr;
  /// SIMD column backend for the proposed (Algorithm 4) kernel. kAuto picks
  /// the widest backend the executing CPU supports (runtime CPUID dispatch
  /// via common/simd_dispatch); kScalar forces the bitwise reference;
  /// kAvx2 / kAvx512 / kNeon throw at construction when the backend is
  /// unavailable. All backends produce bitwise-identical volumes. The
  /// standard (kXMajor) kernel ignores this.
  simd::Backend simd_backend = simd::Backend::kAuto;

  // --- Distributed slab-pair mode (Fig. 3: "2*R sub-volumes") -------------
  //
  // When k_half != npos the kernel computes only the symmetric slab pair
  //   k in [k_begin, k_begin + k_half)  union
  //   k in [Nz - k_begin - k_half, Nz - k_begin)
  // into a volume of local depth 2*k_half, stored as the concatenation of
  // the two slabs in ascending global k. This is how each iFDK rank-row owns
  // one mirrored pair of sub-volumes while the Theorem-1 symmetry still
  // saves half the projection arithmetic. Requires symmetry && kZMajor.
  static constexpr std::size_t kFullVolume = static_cast<std::size_t>(-1);
  std::size_t k_begin = 0;
  std::size_t k_half = kFullVolume;

  bool slab_mode() const { return k_half != kFullVolume; }
};

/// The configuration a Table-3 variant corresponds to. On the CPU the
/// texture/L1 distinction collapses (there is one cache hierarchy), so
/// kBpL1/kL1Tran map to the same memory behaviour as their Tex twins; the
/// GPU-side differences are modeled by gpusim::KernelModel.
BpConfig config_for(KernelVariant variant);

class Backprojector {
 public:
  Backprojector(const geo::CbctGeometry& geometry, BpConfig config);

  /// Back-projects `projections[b]` with matrix `matrices[b]` for all b,
  /// accumulating into `volume` (which must match the configured layout and
  /// the geometry's Nx/Ny/Nz). `matrices` are the P of Eq. 2 for the same
  /// gantry angles as the projections.
  void accumulate(Volume& volume, std::span<const Image2D> projections,
                  std::span<const geo::Mat34> matrices) const;

  /// Ops the given projection count costs under this configuration.
  OpCounts count_ops(std::size_t num_projections) const;

  const BpConfig& config() const { return config_; }

  /// Name of the resolved SIMD column backend ("scalar", "avx2"); what
  /// kAuto actually selected on this machine.
  const char* backend_name() const { return column_kernel_->name; }

 private:
  void run_standard(Volume& volume, std::span<const Image2D> projections,
                    std::span<const geo::Mat34> matrices) const;
  void run_proposed(Volume& volume, std::span<const Image2D> projections,
                    std::span<const geo::Mat34> matrices) const;

  geo::CbctGeometry geometry_;
  BpConfig config_;
  const simd::ColumnKernel* column_kernel_ = nullptr;
};

/// One-call convenience: filters nothing, just back-projects everything into
/// a fresh volume of the configured layout.
Volume backproject_all(const geo::CbctGeometry& geometry,
                       std::span<const Image2D> projections, BpConfig config);

}  // namespace ifdk::bp
