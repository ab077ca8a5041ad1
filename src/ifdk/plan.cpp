#include "ifdk/plan.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "minimpi/minimpi.h"

namespace ifdk {

namespace {

/// "volume 2: " when the plan belongs to a streaming volume, "" otherwise —
/// streaming validation errors must name the offending volume so a bad
/// frame in a long 4D-CT series can be found from the message alone.
std::string volume_prefix(int volume_index) {
  return volume_index >= 0 ? "volume " + std::to_string(volume_index) + ": "
                           : std::string{};
}

}  // namespace

// The plan-level default must track the minimpi tuning constant (the header
// cannot include minimpi.h just for a default value).
static_assert(IfdkOptions{}.reduce_segment_floats ==
              mpi::Comm::kDefaultReduceSegment);

void IfdkOptions::validate() const {
  IFDK_REQUIRE(ranks >= 1, "ranks (" + std::to_string(ranks) +
                               ") must be at least 1");
  IFDK_REQUIRE(bp_batch >= 1, "bp_batch must be positive");
  IFDK_REQUIRE(queue_capacity >= 1, "queue_capacity must be positive");
  IFDK_REQUIRE(reduce_segment_floats > 0,
               "reduce_segment_floats must be positive");
}

DecompositionPlan DecompositionPlan::make(const geo::CbctGeometry& geometry,
                                          const IfdkOptions& options,
                                          int volume_index,
                                          std::size_t resident_slabs) {
  geometry.validate();
  options.validate();
  IFDK_REQUIRE(resident_slabs >= 1, "resident_slabs must be at least 1");
  const std::string prefix = volume_prefix(volume_index);
  const Problem problem = geometry.problem();

  int rows = options.rows;
  if (rows <= 0) {
    // Eq. (7) against the paper's micro-benchmark constants, then the same
    // §4.1.5 doubling loop against the *actual* simulated device, with
    // resident_slabs slab pairs (streaming keeps the bp/reduce double
    // buffer resident).
    rows = perfmodel::select_rows(problem, options.microbench);
    rows = perfmodel::constrain_rows_to_memory(
        problem, rows, options.device.memory_bytes,
        static_cast<std::uint64_t>(options.bp_batch) * geometry.nu *
            geometry.nv * sizeof(float),
        resident_slabs);
  }

  if (options.ranks < rows || options.ranks % rows != 0) {
    throw ConfigError(prefix + "ranks (" + std::to_string(options.ranks) +
                      ") must be a positive multiple of the row count R (" +
                      std::to_string(rows) + ")");
  }
  if (geometry.np % static_cast<std::size_t>(options.ranks) != 0) {
    throw ConfigError(prefix + "Np (" + std::to_string(geometry.np) +
                      ") must divide evenly across the rank grid (ranks=" +
                      std::to_string(options.ranks) + ")");
  }
  if (geometry.nz % (2 * static_cast<std::size_t>(rows)) != 0) {
    throw ConfigError(prefix + "Nz (" + std::to_string(geometry.nz) +
                      ") must be divisible by 2*rows (" +
                      std::to_string(2 * rows) +
                      "): each row owns a symmetric slab pair");
  }

  DecompositionPlan plan;
  plan.grid = {rows, options.ranks / rows};
  plan.geometry = geometry;
  plan.slab_h = geometry.nz / (2 * static_cast<std::size_t>(rows));
  plan.rounds = geometry.np / static_cast<std::size_t>(options.ranks);
  plan.pixels = geometry.nu * geometry.nv;
  plan.slice_px = geometry.nx * geometry.ny;
  plan.reduce_segment_floats = options.reduce_segment_floats;
  plan.bp_batch = options.bp_batch;
  plan.resident_slabs = resident_slabs;
  plan.check_invariants();
  return plan;
}

SlabExtent DecompositionPlan::slab_extent(int row) const {
  const std::size_t r = static_cast<std::size_t>(row);
  return SlabExtent{r * slab_h, (r + 1) * slab_h,
                    geometry.nz - (r + 1) * slab_h, geometry.nz - r * slab_h};
}

std::size_t DecompositionPlan::global_slice(int row,
                                            std::size_t local_k) const {
  return local_k < slab_h
             ? static_cast<std::size_t>(row) * slab_h + local_k
             : geometry.nz - (static_cast<std::size_t>(row) + 1) * slab_h +
                   (local_k - slab_h);
}

std::size_t DecompositionPlan::column_base(int col) const {
  return static_cast<std::size_t>(col) * rounds *
         static_cast<std::size_t>(grid.rows);
}

std::size_t DecompositionPlan::owned_projection(int row, int col,
                                                std::size_t t) const {
  return column_base(col) + t * static_cast<std::size_t>(grid.rows) +
         static_cast<std::size_t>(row);
}

std::vector<std::size_t> DecompositionPlan::projection_shard(int row,
                                                             int col) const {
  std::vector<std::size_t> shard;
  shard.reserve(rounds);
  for (std::size_t t = 0; t < rounds; ++t) {
    shard.push_back(owned_projection(row, col, t));
  }
  return shard;
}

std::uint64_t DecompositionPlan::reduce_segments() const {
  return (slab_floats() + reduce_segment_floats - 1) / reduce_segment_floats;
}

std::uint64_t DecompositionPlan::iter_iteration_tag_budget(
    int subsets) const {
  return 2 * static_cast<std::uint64_t>(subsets) + 2;
}

std::uint64_t DecompositionPlan::iter_setup_tag_budget(int subsets) const {
  return 2 * static_cast<std::uint64_t>(subsets);
}

std::uint64_t DecompositionPlan::iter_device_bytes(int subsets) const {
  // x + one accumulator + per-subset column norms, all full volumes; the
  // all-reduce's incoming and own-chunk scratch, ceil(V/P) floats each; and
  // this rank's projection shard and its forward-projection scratch.
  const std::uint64_t p = static_cast<std::uint64_t>(ranks());
  const std::uint64_t chunk_floats =
      p > 1 ? (volume_floats() + p - 1) / p : 0;
  return ((2 + static_cast<std::uint64_t>(subsets)) * volume_floats() +
          2 * chunk_floats) *
             sizeof(float) +
         2 * static_cast<std::uint64_t>(rounds) * pixels * sizeof(float);
}

std::uint64_t DecompositionPlan::allgather_bytes_per_round() const {
  return static_cast<std::uint64_t>(grid.rows - 1) * pixels * sizeof(float);
}

std::uint64_t DecompositionPlan::device_bytes() const {
  return static_cast<std::uint64_t>(resident_slabs) * slab_bytes() +
         static_cast<std::uint64_t>(bp_batch) * pixels * sizeof(float);
}

void DecompositionPlan::check_device_fit(const gpusim::DeviceSpec& spec) const {
  if (device_bytes() > spec.memory_bytes) {
    throw DeviceOutOfMemory(
        "decomposition needs " + std::to_string(device_bytes()) +
        " B of device memory (" + std::to_string(resident_slabs) +
        " slab pair(s) of " + std::to_string(slab_bytes()) + " B + a " +
        std::to_string(bp_batch) + "-projection batch) but the device has " +
        std::to_string(spec.memory_bytes) + " B; increase rows R (" +
        std::to_string(grid.rows) + ") or shrink the batch");
  }
}

void DecompositionPlan::check_iter_device_fit(
    int subsets, const gpusim::DeviceSpec& spec) const {
  if (iter_device_bytes(subsets) > spec.memory_bytes) {
    throw DeviceOutOfMemory(
        "iterative reconstruction needs " +
        std::to_string(iter_device_bytes(subsets)) +
        " B of device memory (replicated volume + " + std::to_string(subsets) +
        " column-norm volume(s) + all-reduce chunks + the view shard) but "
        "the device has " +
        std::to_string(spec.memory_bytes) + " B");
  }
}

std::string stream_fit_error(std::span<const DecompositionPlan> plans,
                             const gpusim::DeviceSpec& spec) {
  const std::uint64_t resident = plans.size() > 1 ? 2 : 1;
  std::uint64_t max_slab_bytes = 0;
  std::uint64_t max_batch_bytes = 0;
  for (const DecompositionPlan& plan : plans) {
    max_slab_bytes = std::max(max_slab_bytes, plan.slab_bytes());
    max_batch_bytes = std::max(
        max_batch_bytes, static_cast<std::uint64_t>(plan.bp_batch) *
                             plan.pixels * sizeof(float));
  }
  const std::uint64_t needed = resident * max_slab_bytes + max_batch_bytes;
  if (needed <= spec.memory_bytes) return "";
  return "streaming needs " + std::to_string(needed) +
         " B of device memory (" + std::to_string(resident) +
         " resident slab pair(s) of up to " + std::to_string(max_slab_bytes) +
         " B + a batch of " + std::to_string(max_batch_bytes) +
         " B) but the device has " + std::to_string(spec.memory_bytes) + " B";
}

void DecompositionPlan::check_invariants() const {
  // The R slab pairs disjointly cover [0, Nz).
  std::vector<bool> slice_owned(geometry.nz, false);
  for (int row = 0; row < grid.rows; ++row) {
    const SlabExtent e = slab_extent(row);
    IFDK_ASSERT_MSG(e.low_begin < e.low_end && e.low_end <= e.high_begin &&
                        e.high_begin < e.high_end &&
                        e.high_end <= geometry.nz,
                    "slab extent out of order");
    for (std::size_t local_k = 0; local_k < 2 * slab_h; ++local_k) {
      const std::size_t k = global_slice(row, local_k);
      IFDK_ASSERT_MSG(k < geometry.nz && !slice_owned[k],
                      "slab pairs must disjointly cover [0, Nz)");
      IFDK_ASSERT_MSG((local_k < slab_h &&
                       k >= e.low_begin && k < e.low_end) ||
                          (local_k >= slab_h &&
                           k >= e.high_begin && k < e.high_end),
                      "global_slice must land inside the row's slab extent");
      slice_owned[k] = true;
    }
  }
  for (std::size_t k = 0; k < geometry.nz; ++k) {
    IFDK_ASSERT_MSG(slice_owned[k], "slab pairs must cover every slice");
  }

  // The R*C projection shards disjointly cover [0, Np).
  std::vector<bool> proj_owned(geometry.np, false);
  for (int col = 0; col < grid.columns; ++col) {
    for (int row = 0; row < grid.rows; ++row) {
      for (const std::size_t s : projection_shard(row, col)) {
        IFDK_ASSERT_MSG(s < geometry.np && !proj_owned[s],
                        "projection shards must disjointly cover [0, Np)");
        proj_owned[s] = true;
      }
    }
  }
  for (std::size_t s = 0; s < geometry.np; ++s) {
    IFDK_ASSERT_MSG(proj_owned[s], "projection shards must cover every index");
  }
}

}  // namespace ifdk
