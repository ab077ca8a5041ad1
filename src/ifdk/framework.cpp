#include "ifdk/framework.h"

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backproj/backprojector.h"
#include "common/circular_buffer.h"
#include "common/error.h"
#include "engine/engine.h"
#include "fft/fft.h"
#include "minimpi/minimpi.h"

namespace ifdk {

namespace {

using engine::object_name;
using engine::QueueClosedError;

}  // namespace

void stage_projections(pfs::ParallelFileSystem& fs,
                       const std::string& input_prefix,
                       std::span<const Image2D> projections) {
  for (std::size_t s = 0; s < projections.size(); ++s) {
    fs.write_object(object_name(input_prefix, s), projections[s].data(),
                    projections[s].bytes());
  }
}

Volume load_volume(const pfs::ParallelFileSystem& fs,
                   const std::string& output_prefix, const VolDims& dims,
                   bool compressed_store) {
  Volume vol(dims.nx, dims.ny, dims.nz, VolumeLayout::kXMajor,
             /*zero_fill=*/false);
  const std::size_t slice_px = dims.nx * dims.ny;
  for (std::size_t k = 0; k < dims.nz; ++k) {
    const std::string name = object_name(output_prefix, k);
    if (compressed_store) {
      const std::vector<float> slice = pfs::read_compressed_object(fs, name);
      IFDK_REQUIRE(slice.size() == slice_px,
                   "load_volume: compressed slice " + name + " holds " +
                       std::to_string(slice.size()) + " values, expected " +
                       std::to_string(slice_px));
      std::copy(slice.begin(), slice.end(), vol.slice(k));
    } else {
      fs.read_object(name, vol.slice(k), slice_px * sizeof(float));
    }
  }
  return vol;
}

namespace {

/// Per-rank workload-owned results of a streaming run (the generic
/// wall/efficiency/total stats ride the engine's RankContext instead).
struct StreamRankStats {
  /// Stream start to the Bp-thread's last accumulation: the
  /// load+filter+gather+bp span ("compute"), written by the Bp-thread and
  /// read after its join.
  double compute = 0;
  std::vector<std::string> volume_errors;  ///< row roots only; "" = stored
  /// Per-volume store accounting of the volumes this rank roots (all other
  /// entries stay default); every column-0 rank of a grid is a row root, so
  /// the caller merges them across ranks (StreamStats::merge).
  std::vector<pfs::StreamStats> store;
};

/// FDK as an engine Workload: the Fig. 4a/4b per-rank pipeline with
/// streaming epochs — the fused load/filter/gather worker, the Bp-thread
/// with the depth-1 slab handoff, and the Reduce-thread running per-volume
/// collective epochs through the engine's communicator cache and writer
/// plumbing.
class FdkStreamWorkload final : public engine::Workload {
 public:
  FdkStreamWorkload(pfs::ParallelFileSystem& fs, const IfdkOptions& options,
                    std::span<const JobSpec> volumes,
                    std::span<const DecompositionPlan> plans,
                    std::size_t max_gather_floats)
      : fs_(fs),
        options_(options),
        volumes_(volumes),
        plans_(plans),
        max_gather_floats_(max_gather_floats) {
    rank_stats_.resize(static_cast<std::size_t>(options.ranks));
  }

  /// Workload-owned per-rank results (compute span, per-volume store
  /// errors and accounting), merged by the caller.
  const StreamRankStats& rank_stats(std::size_t rank) const {
    return rank_stats_[rank];
  }

  /// The per-rank pipeline (three threads plus the store writer,
  /// per-volume epochs).
  void run_rank(engine::RankContext& ctx) override {
    pfs::ParallelFileSystem& fs = fs_;
    const IfdkOptions& options = options_;
    std::span<const JobSpec> volumes = volumes_;
    std::span<const DecompositionPlan> plans = plans_;
    const std::size_t n_volumes = volumes.size();
    const std::size_t max_gather_floats = max_gather_floats_;

    mpi::Comm& world = ctx.world;
    const int rank = ctx.rank;
    StreamRankStats& stats = rank_stats_[static_cast<std::size_t>(rank)];
    stats.volume_errors.assign(n_volumes, "");
    stats.store.assign(n_volumes, pfs::StreamStats{});
    Timer rank_timer;

    // ---- Per-epoch communicators (the grid re-split) ----------------------
    // The engine's communicator cache: one col/row pair per distinct row
    // count, built up front in volume order (a split is a collective, so
    // every rank must perform the same sequence). Consecutive volumes with
    // the same grid share a pair, which is what lets their collective
    // epochs stay in flight together; the stream "re-splits" by switching
    // pairs at the volume boundary.
    std::vector<int> rows_per_volume;
    rows_per_volume.reserve(n_volumes);
    for (const DecompositionPlan& plan : plans) {
      rows_per_volume.push_back(plan.grid.rows);
    }
    engine::EpochComms epoch_comms(world, rows_per_volume);

    struct Filtered {
      std::size_t index;
      Image2D image;
    };
    struct Round {
      std::size_t vol;
      std::vector<Filtered> images;
    };
    struct SlabPair {
      std::size_t vol;
      Volume slab;
    };
    CircularBuffer<Round> q_gathered(options.queue_capacity);
    // Depth-1 handoff: the Bp-thread may run at most one volume ahead of
    // the reduce, so at most two slab pairs are resident — the double
    // buffer stream_fit_error budgets for.
    CircularBuffer<SlabPair> q_slabs(1);

    std::exception_ptr bp_error;
    std::exception_ptr reduce_error;
    std::exception_ptr main_error;

    // ---- Bp-thread: accumulate rounds; hand each finished slab over -------
    StageTimer bp_timer;
    std::thread bp_thread([&] {
      std::optional<bp::Backprojector> backprojector;
      std::vector<geo::Mat34> matrices;
      const geo::CbctGeometry* bp_geom = nullptr;
      Volume slab;
      // (Re)builds the per-volume kernel state: new projection matrices on
      // a geometry change, a new Backprojector when the geometry or this
      // rank's slab assignment (row, slab_h) changed, and a fresh
      // zero-filled slab pair in the volume's own dimensions.
      auto prepare_volume = [&](std::size_t v) {
        const DecompositionPlan& plan = plans[v];
        const bool geom_changed =
            bp_geom == nullptr || !(*bp_geom == plan.geometry);
        if (geom_changed) {
          matrices = geo::make_all_projection_matrices(plan.geometry);
        }
        if (geom_changed || v == 0 || !plans[v - 1].same_grid(plan)) {
          bp::BpConfig bp_cfg;
          bp_cfg.batch = options.bp_batch;
          bp_cfg.simd_backend = options.simd_backend;
          bp_cfg.k_begin =
              static_cast<std::size_t>(plan.row_of(rank)) * plan.slab_h;
          bp_cfg.k_half = plan.slab_h;
          backprojector.emplace(plan.geometry, bp_cfg);
        }
        bp_geom = &plan.geometry;
        slab = Volume(plan.geometry.nx, plan.geometry.ny, 2 * plan.slab_h,
                      VolumeLayout::kZMajor, /*zero_fill=*/true);
      };
      std::size_t current_vol = 0;
      std::size_t rounds_done = 0;
      bool prepared = false;
      while (auto round = q_gathered.pop()) {
        if (bp_error) continue;  // drain remaining rounds after a failure
        try {
          IFDK_ASSERT(round->vol == current_vol);
          const DecompositionPlan& plan = plans[current_vol];
          if (!prepared) {
            prepare_volume(current_vol);
            prepared = true;
          }
          std::vector<Image2D> images;
          std::vector<geo::Mat34> mats;
          images.reserve(round->images.size());
          mats.reserve(round->images.size());
          for (Filtered& f : round->images) {
            mats.push_back(matrices[f.index]);
            images.push_back(std::move(f.image));
          }
          bp_timer.time("backprojection", [&] {
            backprojector->accumulate(slab, images, mats);
          });
          if (++rounds_done == plan.rounds) {
            if (!q_slabs.push(SlabPair{current_vol, std::move(slab)})) {
              throw QueueClosedError(
                  "iFDK streaming: slab queue closed before all volumes were "
                  "back-projected");
            }
            rounds_done = 0;
            ++current_vol;
            if (current_vol < n_volumes) {
              prepare_volume(current_vol);
            }
          }
        } catch (...) {
          bp_error = std::current_exception();
          q_gathered.close();
          q_slabs.close();
        }
      }
      // The load+filter+gather+bp span, reported as the "compute" stage
      // (the join below publishes the write).
      stats.compute = rank_timer.seconds();
      if (!bp_error) q_slabs.close();
    });

    // ---- Reduce-thread: transpose + row ireduce + store, volume by volume --
    // Runs the per-volume collective epochs while the worker threads above
    // are already filtering/gathering/back-projecting the NEXT volumes.
    StageTimer reduce_timer;
    double store_busy = 0;
    std::thread reduce_thread([&] {
      try {
        // The engine's writer plumbing: one multiplexed writer per rank
        // that roots ANY volume's row; which rank that is can change per
        // volume when the grid re-splits.
        std::vector<bool> roots(n_volumes, false);
        std::vector<int> store_bits(n_volumes, 0);
        for (std::size_t v = 0; v < n_volumes; ++v) {
          roots[v] = plans[v].col_of(rank) == 0;
          store_bits[v] =
              volumes[v].compress_store ? volumes[v].store_bits : 0;
        }
        engine::VolumeWriterSet writers(fs, options.queue_capacity, roots,
                                        store_bits);
        std::vector<float> partial;
        std::vector<float> reduced;
        for (std::size_t v = 0; v < n_volumes; ++v) {
          const DecompositionPlan& plan = plans[v];
          const int row = plan.row_of(rank);
          const int col = plan.col_of(rank);
          const std::size_t slice_px = plan.slice_px;
          const std::size_t pair_depth = 2 * plan.slab_h;
          mpi::Comm& row_comm = epoch_comms.of(v).row;
          auto slab = q_slabs.pop();
          if (!slab.has_value()) {
            throw QueueClosedError(
                "iFDK streaming: slab queue closed before all volumes were "
                "reduced");
          }
          IFDK_ASSERT(slab->vol == v);
          partial.resize(plan.slab_floats());
          reduced.resize(col == 0 ? plan.slab_floats() : 0);
          reduce_timer.time("transpose", [&] {
            for (std::size_t k = 0; k < pair_depth; ++k) {
              engine::extract_zmajor_slice(slab->slab.data(),
                                           plan.geometry.nx, plan.geometry.ny,
                                           pair_depth, k,
                                           partial.data() + k * slice_px);
            }
          });
          std::size_t next_slice = 0;
          bool stream_open = true;
          mpi::Comm::SegmentCallback on_segment;
          if (col == 0) {
            on_segment = [&](std::size_t offset, std::size_t length) {
              const std::size_t prefix = offset + length;
              while (next_slice < pair_depth &&
                     (next_slice + 1) * slice_px <= prefix) {
                const float* src = reduced.data() + next_slice * slice_px;
                if (stream_open) {
                  // A poisoned stream (write error on THIS volume) refuses
                  // further slices; volume v fails at finish_volume below
                  // while every other volume keeps flowing.
                  stream_open = writers.enqueue(
                      v,
                      object_name(volumes[v].output_prefix,
                                  plan.global_slice(row, next_slice)),
                      std::vector<float>(src, src + slice_px));
                }
                ++next_slice;
              }
            };
          }
          const std::uint64_t tags_before =
              row_comm.collective_tags_reserved();
          mpi::Comm::CollectiveRequest req = row_comm.ireduce(
              partial.data(), col == 0 ? reduced.data() : nullptr,
              partial.size(), mpi::ReduceOp::kSum, /*root=*/0,
              options.reduce_segment_floats, std::move(on_segment));
          reduce_timer.time("reduce", [&] { req.wait(); });
          engine::assert_tag_budget(
              tags_before, row_comm.collective_tags_reserved(),
              plan.reduce_tag_budget(),
              "row-reduce epoch exceeded the plan's tag budget");
          if (col == 0) {
            reduce_timer.time("store", [&] {
              stats.volume_errors[v] = writers.finish_volume(v);
            });
            stats.store[v] = writers.volume_store_stats(v);
          }
        }
        writers.finish();  // all stream errors were claimed above
        store_busy = writers.busy_seconds();
      } catch (...) {
        reduce_error = std::current_exception();
        // Unblock a Bp-thread stalled on the slab handoff; the closed queue
        // propagates the shutdown up the pipeline.
        q_slabs.close();
      }
    });

    // ---- Worker (main) thread: load + filter + column gather per round -----
    // Same-thread overlap via irecv: post round g's sends and receives, then
    // load+filter round g+1 while g's blocks are in transit, then wait g's
    // receives and deliver. The exchange is double-buffered across the whole
    // round stream, volume boundaries included (even across a grid re-split,
    // where the two rounds ride different communicators). Tags are
    // per-round user tags — the column communicators are framework-private,
    // so the space is free (and per-comm, so a re-split epoch cannot collide
    // with an earlier grid's in-flight round).
    StageTimer main_timer;
    // Both gather buffers are sized for the largest rows x pixels in the
    // stream, so a geometry change never resizes a buffer with an exchange
    // still in flight into its sibling.
    std::vector<float> gather_recv[2];
    gather_recv[0].resize(max_gather_floats);
    gather_recv[1].resize(max_gather_floats);
    std::vector<mpi::Comm::Request> reqs[2];
    bool have_pending = false;
    std::size_t pending_v = 0;
    std::size_t pending_t = 0;
    std::size_t pending_buf = 0;
    // Waits the pending round's receives and hands its R images, in row
    // order, to the Bp-thread.
    auto deliver_pending = [&] {
      main_timer.time("allgather",
                      [&] { mpi::Comm::wait_all(reqs[pending_buf]); });
      const DecompositionPlan& plan = plans[pending_v];
      const int col = plan.col_of(rank);
      const std::vector<float>& recv = gather_recv[pending_buf];
      std::vector<Filtered> images;
      images.reserve(static_cast<std::size_t>(plan.grid.rows));
      for (int r = 0; r < plan.grid.rows; ++r) {
        Image2D img(plan.geometry.nu, plan.geometry.nv, /*zero_fill=*/false);
        const float* src =
            recv.data() + static_cast<std::size_t>(r) * plan.pixels;
        std::copy(src, src + plan.pixels, img.data());
        images.push_back(
            Filtered{plan.owned_projection(r, col, pending_t), std::move(img)});
      }
      if (!q_gathered.push(Round{pending_v, std::move(images)})) {
        throw QueueClosedError(
            "iFDK streaming: gathered-projection queue closed before all "
            "rounds were delivered");
      }
    };
    try {
      std::optional<filter::FilterEngine> engine;
      const geo::CbctGeometry* engine_geom = nullptr;
      // Worker-owned FFT scratch, reused across volumes (Workspace only
      // grows, so a geometry change at most reallocates once).
      fft::Workspace fft_ws;
      std::size_t g = 0;  // global round counter across the whole stream
      for (std::size_t v = 0; v < n_volumes; ++v) {
        const DecompositionPlan& plan = plans[v];
        if (engine_geom == nullptr || !(*engine_geom == plan.geometry)) {
          engine.emplace(plan.geometry, options.filter);
          engine_geom = &plan.geometry;
        }
        const int row = plan.row_of(rank);
        const int col = plan.col_of(rank);
        mpi::Comm& col_comm = epoch_comms.of(v).col;
        const std::uint64_t tags_before = col_comm.collective_tags_reserved();
        for (std::size_t t = 0; t < plan.rounds; ++t, ++g) {
          const std::size_t s = plan.owned_projection(row, col, t);
          Image2D img(plan.geometry.nu, plan.geometry.nv, /*zero_fill=*/false);
          main_timer.time("load", [&] {
            fs.read_object(object_name(volumes[v].input_prefix, s),
                           img.data(), img.bytes());
          });
          main_timer.time("filter", [&] { engine->apply(img, fft_ws); });
          main_timer.time("allgather", [&] {
            const int tag = static_cast<int>(g % (std::size_t{1} << 20));
            std::vector<float>& buf = gather_recv[g % 2];
            std::copy(img.data(), img.data() + plan.pixels,
                      buf.data() + static_cast<std::size_t>(row) * plan.pixels);
            std::vector<mpi::Comm::Request>& rr = reqs[g % 2];
            rr.clear();
            for (int r = 0; r < plan.grid.rows; ++r) {
              if (r == row) continue;
              col_comm.isend(r, tag, img.data(), plan.pixels * sizeof(float))
                  .wait();  // buffered: completion is immediate
              rr.push_back(col_comm.irecv(
                  r, tag,
                  buf.data() + static_cast<std::size_t>(r) * plan.pixels,
                  plan.pixels * sizeof(float)));
            }
          });
          if (have_pending) deliver_pending();
          pending_v = v;
          pending_t = t;
          pending_buf = g % 2;
          have_pending = true;
        }
        // The exchange runs over user tags: a gather epoch reserves no
        // collective tags at all.
        engine::assert_tag_budget(tags_before,
                                  col_comm.collective_tags_reserved(), 0,
                                  "gather epoch reserved collective tags");
      }
      if (have_pending) deliver_pending();
    } catch (...) {
      main_error = std::current_exception();
      // Sibling threads of THIS rank may be blocked inside collectives whose
      // remote peers will never progress past our failure; poison the world
      // before joining them so every epoch unwinds instead of hanging. The
      // local root cause still wins the error report (run_world prefers
      // non-abort errors).
      world.abort_world();
    }
    q_gathered.close();

    bp_thread.join();
    reduce_thread.join();

    // Rethrow the root cause: real failures > world-abort symptoms >
    // queue-shutdown symptoms.
    const std::exception_ptr errors[] = {bp_error, reduce_error, main_error};
    if (const std::exception_ptr first = engine::pick_root_cause(errors)) {
      std::rethrow_exception(first);
    }
    world.barrier();

    ctx.wall.merge(bp_timer);
    ctx.wall.merge(main_timer);
    ctx.wall.merge(reduce_timer);
    ctx.wall.set_max("store", store_busy);
    ctx.wall.add("compute", stats.compute);
    ctx.total = rank_timer.seconds();
    if (ctx.total > 0) {
      ctx.efficiency.add(
          "main_thread",
          (main_timer.get("load") + main_timer.get("filter") +
           main_timer.get("allgather")) /
              ctx.total);
      ctx.efficiency.add("bp_thread",
                         bp_timer.get("backprojection") / ctx.total);
      ctx.efficiency.add(
          "reduce_thread",
          (reduce_timer.get("transpose") + reduce_timer.get("reduce") +
           reduce_timer.get("store")) /
              ctx.total);
      ctx.efficiency.add("store_thread", store_busy / ctx.total);
    }
  }

 private:
  pfs::ParallelFileSystem& fs_;
  const IfdkOptions& options_;
  std::span<const JobSpec> volumes_;
  std::span<const DecompositionPlan> plans_;
  std::size_t max_gather_floats_;
  std::vector<StreamRankStats> rank_stats_;
};

}  // namespace

StreamingStats run_streaming(const geo::CbctGeometry& geometry,
                             pfs::ParallelFileSystem& fs,
                             const IfdkOptions& options,
                             std::span<const JobSpec> volumes) {
  // Every JobSpec is checked with its volume index, so a bad frame in a
  // long series names itself.
  options.validate();
  for (std::size_t v = 0; v < volumes.size(); ++v) {
    volumes[v].validate(static_cast<int>(v));
    if (volumes[v].workload != WorkloadKind::kFdk) {
      throw ConfigError("volume " + std::to_string(v) +
                        ": run_streaming executes FDK jobs only; iterative "
                        "jobs dispatch through iterative::run_iterative (or "
                        "the service front door)");
    }
  }

  const std::size_t n_volumes = volumes.size();
  // One DecompositionPlan per volume: the volume's own geometry when set,
  // the run geometry otherwise. Validation errors name the volume. With
  // more than one volume the bp/reduce double buffer keeps TWO slab pairs
  // resident — the one the Bp-thread accumulates (volume v+1) and the one
  // draining through the row reduce (volume v) — which the plan's
  // memory-aware row selection accounts for.
  const std::size_t resident = n_volumes > 1 ? 2 : 1;
  std::vector<DecompositionPlan> plans;
  plans.reserve(n_volumes);
  for (std::size_t v = 0; v < n_volumes; ++v) {
    plans.push_back(DecompositionPlan::make(
        volumes[v].geometry.value_or(geometry), options,
        static_cast<int>(v), resident));
  }

  StreamingStats out;
  out.volumes = static_cast<int>(n_volumes);
  out.volume_errors.assign(n_volumes, "");
  out.plans = plans;
  // The ONLY place StreamingStats::grid is assigned: always the first
  // executed plan's grid, so the summary field can never drift from `plans`
  // (a zero-volume stream still validates the run configuration and reports
  // the grid it would have used).
  out.grid = out.plans.empty()
                 ? DecompositionPlan::make(geometry, options).grid
                 : out.plans.front().grid;
  if (n_volumes == 0) {
    return out;
  }

  if (const std::string why = stream_fit_error(plans, options.device);
      !why.empty()) {
    throw DeviceOutOfMemory(why);
  }
  std::size_t max_gather_floats = 0;  // largest rows * pixels in the stream
  for (const DecompositionPlan& plan : plans) {
    max_gather_floats =
        std::max(max_gather_floats,
                 static_cast<std::size_t>(plan.grid.rows) * plan.pixels);
  }

  FdkStreamWorkload workload(fs, options, volumes, plans, max_gather_floats);
  const engine::EngineStats engine_stats =
      engine::run(options.ranks, workload);

  out.wall = engine_stats.wall;
  out.overlap_efficiency = engine_stats.efficiency;
  const double wall_total = engine_stats.wall_total;
  // Every column-0 rank is a row root, so per-volume store accounting is
  // scattered across R ranks: the merged stats ARE the whole volume's
  // store.
  std::vector<pfs::StreamStats> store(n_volumes);
  for (std::size_t r = 0; r < static_cast<std::size_t>(options.ranks); ++r) {
    const StreamRankStats& rs = workload.rank_stats(r);
    for (std::size_t v = 0; v < n_volumes; ++v) {
      if (out.volume_errors[v].empty() && !rs.volume_errors[v].empty()) {
        out.volume_errors[v] = rs.volume_errors[v];
      }
      store[v].merge(rs.store[v]);
    }
  }
  out.volume_store_psnr_db.reserve(n_volumes);
  for (std::size_t v = 0; v < n_volumes; ++v) {
    out.store_raw_bytes += store[v].raw_bytes;
    out.store_stored_bytes += store[v].stored_bytes;
    out.volume_store_psnr_db.push_back(store[v].psnr_db());
  }
  out.wall_total = wall_total;
  out.volumes_per_second =
      wall_total > 0 ? static_cast<double>(n_volumes) / wall_total : 0;
  return out;
}

StreamingStats run_distributed(const geo::CbctGeometry& geometry,
                               pfs::ParallelFileSystem& fs,
                               const IfdkOptions& options) {
  const JobSpec job{options.input_prefix, options.output_prefix, {}};
  StreamingStats stats =
      run_streaming(geometry, fs, options, std::span<const JobSpec>(&job, 1));
  // The one volume's store failure IS the run's failure.
  if (!stats.volume_errors[0].empty()) {
    throw IoError(stats.volume_errors[0]);
  }
  return stats;
}

}  // namespace ifdk
