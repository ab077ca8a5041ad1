// The perf-trajectory anchor: a fast small-geometry microbench of the hot
// kernels that writes machine-readable BENCH_smoke.json. CI runs it on every
// build (ctest label `bench`), so the repo accumulates one JSON point per
// revision — the trajectory the ROADMAP's "hardware-speed" goal is plotted
// against.
//
// Usage: bench_smoke [output.json]   (default: BENCH_smoke.json in $PWD)
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "backproj/backprojector.h"
#include "bench_common.h"
#include "common/cpu_features.h"
#include "common/simd_dispatch.h"
#include "common/thread_pool.h"
#include "fft/fft.h"
#include "filter/filter_engine.h"
#include "filter/ramp.h"
#include "geometry/cbct.h"
#include "ifdk/framework.h"
#include "iterative/distributed.h"
#include "pfs/pfs.h"
#include "postproc/compression.h"
#include "projector/forward.h"
#include "service/recon_service.h"

namespace {

using namespace ifdk;

struct Result {
  std::string name;
  double seconds = 0.0;
  double gups = 0.0;  ///< voxel updates per second / 2^30
};

/// Distributed-pipeline smoke point: one-volume run_distributed wall time
/// plus its per-thread overlap efficiencies (busy/wall of the critical
/// rank) — the numbers that track the Fig. 4 overlap claim.
struct PipelineResult {
  int ranks = 4;
  int rows = 2;
  double seconds = 0.0;
  StageTimer efficiency;
};

/// Streaming smoke point: N volumes pipelined through one world — the
/// volumes/sec number the 4D-CT "instant reconstruction" trajectory is
/// plotted against, plus per-thread busy/wall of the critical rank.
struct StreamingResult {
  int ranks = 4;
  int rows = 2;
  int volumes = 4;
  double seconds = 0.0;
  double volumes_per_second = 0.0;
  StageTimer efficiency;
};

StreamingResult time_streaming(const bench::Scene& scene, int runs) {
  StreamingResult r;
  IfdkOptions opts;
  opts.ranks = r.ranks;
  opts.rows = r.rows;
  std::vector<JobSpec> volumes;
  for (int v = 0; v < r.volumes; ++v) {
    volumes.push_back(JobSpec{"in" + std::to_string(v) + "/",
                                   "out" + std::to_string(v) + "/slice_",
                                   {}});
  }
  StreamingStats last;
  r.seconds = bench::median_seconds(runs, [&] {
    pfs::ParallelFileSystem fs;
    for (const JobSpec& vol : volumes) {
      stage_projections(fs, vol.input_prefix, scene.projections);
    }
    last = run_streaming(scene.g, fs, opts, volumes);
  });
  r.volumes_per_second =
      r.seconds > 0.0 ? static_cast<double>(r.volumes) / r.seconds : 0.0;
  r.efficiency = last.overlap_efficiency;
  return r;
}

/// Compression smoke point: the streaming run with the quantized store
/// codec on — achieved store ratio and the worst per-volume store PSNR —
/// plus raw encode/decode throughput of the lossless frame codec on
/// projection data (the numbers the Section 8 "compression" trajectory is
/// plotted against).
struct CompressionResult {
  int ranks = 4;
  int rows = 2;
  int volumes = 2;
  int store_bits = 12;
  double seconds = 0.0;
  std::size_t store_raw_bytes = 0;
  std::size_t store_stored_bytes = 0;
  double store_ratio = 1.0;
  double min_store_psnr_db = 0.0;
  double encode_mb_per_s = 0.0;
  double decode_mb_per_s = 0.0;
};

CompressionResult time_compression(const bench::Scene& scene, int runs) {
  CompressionResult r;
  IfdkOptions opts;
  opts.ranks = r.ranks;
  opts.rows = r.rows;
  std::vector<JobSpec> volumes;
  for (int v = 0; v < r.volumes; ++v) {
    JobSpec spec{"in" + std::to_string(v) + "/",
                 "cmp_out" + std::to_string(v) + "/slice_",
                 {}};
    spec.compress_store = true;
    spec.store_bits = r.store_bits;
    volumes.push_back(std::move(spec));
  }
  StreamingStats last;
  r.seconds = bench::median_seconds(runs, [&] {
    pfs::ParallelFileSystem fs;
    for (const JobSpec& vol : volumes) {
      stage_projections(fs, vol.input_prefix, scene.projections);
    }
    last = run_streaming(scene.g, fs, opts, volumes);
  });
  r.store_raw_bytes = last.store_raw_bytes;
  r.store_stored_bytes = last.store_stored_bytes;
  r.store_ratio = last.store_ratio();
  r.min_store_psnr_db = 0.0;
  for (std::size_t v = 0; v < last.volume_store_psnr_db.size(); ++v) {
    const double psnr = last.volume_store_psnr_db[v];
    if (std::isfinite(psnr) &&
        (r.min_store_psnr_db == 0.0 || psnr < r.min_store_psnr_db)) {
      r.min_store_psnr_db = psnr;
    }
  }

  // Raw lossless-codec throughput on real projection data (one frame per
  // projection).
  const double enc_s = bench::median_seconds(runs, [&] {
    for (const Image2D& p : scene.projections) {
      postproc::encode_frame(p.data(), p.pixels());
    }
  });
  std::vector<std::vector<std::uint8_t>> frames;
  for (const Image2D& p : scene.projections) {
    frames.push_back(postproc::encode_frame(p.data(), p.pixels()));
  }
  std::vector<float> decoded(scene.projections[0].pixels());
  const double dec_s = bench::median_seconds(runs, [&] {
    for (std::size_t n = 0; n < frames.size(); ++n) {
      postproc::decode_frame(frames[n].data(), frames[n].size(),
                             decoded.data(), decoded.size());
    }
  });
  const double mb = static_cast<double>(scene.projections.size()) *
                    static_cast<double>(decoded.size()) * sizeof(float) /
                    1048576.0;
  r.encode_mb_per_s = enc_s > 0.0 ? mb / enc_s : 0.0;
  r.decode_mb_per_s = dec_s > 0.0 ? mb / dec_s : 0.0;
  return r;
}

/// Service-layer smoke point: N mixed-priority jobs submitted through the
/// ReconService front door (one deliberately rejected at admission), drained
/// to completion — the jobs/sec, queue-latency, and rejection numbers the
/// scheduler trajectory is plotted against.
struct ServiceResult {
  int ranks = 4;
  int rows = 2;
  int jobs = 4;
  double seconds = 0.0;
  double jobs_per_second = 0.0;
  double mean_queue_latency_s = 0.0;
  std::size_t rejected = 0;
  std::size_t resplits = 0;
};

ServiceResult time_service(const bench::Scene& scene, int runs) {
  ServiceResult r;
  service::ServiceOptions opts;
  opts.ifdk.ranks = r.ranks;
  opts.ifdk.rows = r.rows;
  service::ServiceStats last;
  std::size_t rejected = 0;
  r.seconds = bench::median_seconds(runs, [&] {
    rejected = 0;
    pfs::ParallelFileSystem fs;
    service::ReconService svc(scene.g, fs, opts);
    for (int j = 0; j < r.jobs; ++j) {
      JobSpec spec{"in" + std::to_string(j) + "/",
                   "out" + std::to_string(j) + "/slice_"};
      spec.tenant = j % 2 == 0 ? "even" : "odd";
      spec.priority = j % 2;
      stage_projections(fs, spec.input_prefix, scene.projections);
      svc.submit(std::move(spec));
    }
    // One impossible job exercises the admission path (counted, not run).
    try {
      service::ServiceOptions tiny = opts;
      tiny.ifdk.device.memory_bytes = 1;
      service::ReconService reject_svc(scene.g, fs, tiny);
      reject_svc.submit(JobSpec{"in0/", "reject/slice_"});
    } catch (const service::AdmissionError&) {
      ++rejected;
    }
    svc.drain();
    last = svc.stats();
  });
  r.jobs_per_second =
      r.seconds > 0.0 ? static_cast<double>(r.jobs) / r.seconds : 0.0;
  r.mean_queue_latency_s = last.mean_queue_latency_s;
  r.rejected = rejected;
  r.resplits = last.resplits;
  return r;
}

/// Iterative-workload smoke point: SART on the engine — iterations/sec, the
/// residual trajectory, and per-stage busy seconds of the critical rank (the
/// numbers the §6.2 solver trajectory is plotted against).
struct IterativeResult {
  int ranks = 4;
  int rows = 2;
  int iterations = 2;
  double seconds = 0.0;
  iterative::IterStats stats;
};

IterativeResult time_iterative(const bench::Scene& scene, int runs) {
  IterativeResult r;
  IfdkOptions opts;
  opts.ranks = r.ranks;
  opts.rows = r.rows;
  JobSpec spec{"in/", "iter_out/slice_"};
  spec.workload = WorkloadKind::kIterative;
  spec.iterative.iterations = r.iterations;
  r.seconds = bench::median_seconds(runs, [&] {
    pfs::ParallelFileSystem fs;
    stage_projections(fs, spec.input_prefix, scene.projections);
    r.stats = iterative::run_iterative(scene.g, fs, opts, spec);
  });
  return r;
}

PipelineResult time_pipeline(const bench::Scene& scene, int runs) {
  PipelineResult p;
  IfdkOptions opts;
  opts.ranks = p.ranks;
  opts.rows = p.rows;
  StreamingStats last;
  p.seconds = bench::median_seconds(runs, [&] {
    pfs::ParallelFileSystem fs;
    stage_projections(fs, opts.input_prefix, scene.projections);
    last = run_distributed(scene.g, fs, opts);
  });
  p.efficiency = last.overlap_efficiency;
  return p;
}

/// One ramp-filter timing row: the row convolver pinned to one FFT batch
/// backend, driven either through the lane-width batch entry point or row by
/// row. Every row does identical arithmetic (the backends are bitwise-
/// identical by construction), so the deltas are pure vectorization effects.
struct FilterRow {
  std::string name;
  double seconds = 0.0;
  double rows_per_second = 0.0;
};

/// Filter-stage smoke point: per-backend rows for the FFT batch backend
/// layer, plus the backend kAuto resolves to on this machine (what the
/// production filtering threads run) and its SoA lane count (8 on avx512,
/// 4 elsewhere).
struct FilterResult {
  const char* backend = "scalar";
  std::size_t lanes = 4;
  std::vector<FilterRow> rows;
};

FilterResult time_filter(const bench::Scene& scene, int runs) {
  FilterResult f;
  f.backend = filter::FilterEngine(scene.g).fft_backend_name();
  // The exact full-row ramp kernel FilterEngine builds by default.
  const std::vector<double> kernel = filter::make_ramp_kernel(
      scene.g.nu - 1, 1.0, filter::RampWindow::kRamLak, 1.0);
  const std::size_t nu = scene.g.nu;
  const std::size_t nv = scene.g.nv;
  std::vector<float> rows(nu * nv);
  const auto refresh = [&] {
    std::memcpy(rows.data(), scene.projections[0].data(),
                rows.size() * sizeof(float));
  };
  const auto add_row = [&](const std::string& name, double seconds) {
    FilterRow r{name, seconds, 0.0};
    r.rows_per_second =
        seconds > 0.0 ? static_cast<double>(nv) / seconds : 0.0;
    f.rows.push_back(std::move(r));
  };
  const auto time_backend = [&](fft::Backend backend, const char* prefix) {
    const fft::RowConvolver conv(nu, kernel, backend);
    fft::Workspace ws;
    add_row(std::string(prefix) + "_batched",
            bench::median_seconds(runs, [&] {
              refresh();
              conv.convolve_rows(rows.data(), nv, ws);
            }));
    add_row(std::string(prefix) + "_single_row",
            bench::median_seconds(runs, [&] {
              refresh();
              for (std::size_t v = 0; v < nv; ++v) {
                conv.convolve_row(rows.data() + v * nu, ws);
              }
            }));
  };
  f.lanes = fft::RowConvolver(nu, kernel).batch_lanes();
  // Every backend this CPU/build supports, widest first (list_backends()
  // order), so the JSON always carries the full measured backend matrix.
  for (const ifdk::simd::BackendInfo& info : ifdk::simd::list_backends()) {
    if (!info.supported) continue;
    time_backend(info.backend,
                 (std::string("filter_") + ifdk::simd::to_string(info.backend))
                     .c_str());
  }
  return f;
}

/// Forward-projector smoke point: serial per-view times of the iterative
/// solvers' operator A on the voxelized phantom, and of its row norms A*1
/// (ray_lengths), at the default step (0.5 x min pitch). Serial because each
/// rank of the distributed solver runs its projector on one thread.
struct ProjectorResult {
  std::size_t views = 8;
  double forward_ms_per_view = 0.0;
  double ray_lengths_ms_per_view = 0.0;
};

ProjectorResult time_projector(const bench::Scene& scene, int runs) {
  ProjectorResult r;
  const Volume vol = phantom::voxelize(phantom::shepp_logan(), scene.g);
  const projector::ForwardProjector fp(scene.g);
  const double views = static_cast<double>(r.views);
  const auto beta = [&](std::size_t n) {
    return scene.g.beta(n * scene.g.np / r.views);
  };
  r.forward_ms_per_view = bench::median_seconds(runs, [&] {
    for (std::size_t n = 0; n < r.views; ++n) fp.project(vol, beta(n));
  }) * 1e3 / views;
  r.ray_lengths_ms_per_view = bench::median_seconds(runs, [&] {
    for (std::size_t n = 0; n < r.views; ++n) fp.ray_lengths(beta(n));
  }) * 1e3 / views;
  return r;
}

Result time_backprojection(const char* name, const bench::Scene& scene,
                           bp::BpConfig cfg, int runs) {
  const auto matrices = geo::make_all_projection_matrices(scene.g);
  bp::Backprojector kernel(scene.g, cfg);
  Volume vol(scene.g.nx, scene.g.ny, scene.g.nz, cfg.layout);
  Result r{name, 0.0, 0.0};
  r.seconds = bench::median_seconds(
      runs, [&] { kernel.accumulate(vol, scene.projections, matrices); });
  r.gups = static_cast<double>(scene.g.problem().updates()) / r.seconds /
           1073741824.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_smoke.json";
  constexpr int kRuns = 5;

  const bench::Scene scene = bench::make_scene({{96, 96, 32}, {48, 48, 48}});
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  ThreadPool pool(hw);

  // The auto-dispatched backend this machine resolves to (what production
  // code paths run); recorded in the JSON so the perf trajectory can tell
  // scalar points from AVX2 points.
  const char* active_backend =
      bp::Backprojector(scene.g, bp::config_for(bp::KernelVariant::kL1Tran))
          .backend_name();

  std::vector<Result> results;
  results.push_back(time_backprojection(
      "backproject_standard_serial", scene,
      bp::config_for(bp::KernelVariant::kRtk32), kRuns));
  results.push_back(time_backprojection(
      "backproject_proposed_serial", scene,
      bp::config_for(bp::KernelVariant::kL1Tran), kRuns));
  bp::BpConfig pooled = bp::config_for(bp::KernelVariant::kL1Tran);
  pooled.pool = &pool;
  results.push_back(time_backprojection("backproject_proposed_pooled", scene,
                                        pooled, kRuns));
  // One pinned row per backend this CPU/build supports, widest first, so
  // the JSON always carries the full measured backend matrix.
  for (const simd::BackendInfo& info : simd::list_backends()) {
    if (!info.supported) continue;
    bp::BpConfig cfg = bp::config_for(bp::KernelVariant::kL1Tran);
    cfg.simd_backend = info.backend;
    results.push_back(time_backprojection(
        ("backproject_proposed_" +
         std::string(simd::to_string(info.backend)))
            .c_str(),
        scene, cfg, kRuns));
  }

  {
    filter::FilterEngine engine(scene.g);
    Image2D img(scene.g.nu, scene.g.nv, false);
    Result r{"filter_projection", 0.0, 0.0};
    r.seconds = bench::median_seconds(kRuns, [&] {
      for (std::size_t n = 0; n < img.pixels(); ++n) {
        img.data()[n] = scene.projections[0].data()[n];
      }
      engine.apply(img);
    });
    results.push_back(r);
  }

  // End-to-end distributed pipeline (small 2x2 grid), 3-run median (the
  // full recon dominates smoke runtime, so fewer runs than the kernel
  // timings).
  const PipelineResult pipeline = time_pipeline(scene, 3);

  // Streaming-4DCT smoke point: 4 volumes through the same 2x2 world.
  const StreamingResult streaming = time_streaming(scene, 3);

  // Service smoke point: 4 mixed-priority jobs through the scheduler front
  // door (plus one admission rejection).
  const ServiceResult svc = time_service(scene, 3);

  // Iterative-workload smoke point: 2 SART iterations on the same 2x2 world.
  const IterativeResult iter = time_iterative(scene, 3);

  // Compression smoke point: the same streaming world with the 12-bit
  // quantized store on.
  const CompressionResult comp = time_compression(scene, 3);

  // Filter-stage smoke point: the FFT batch backends head to head.
  const FilterResult filt = time_filter(scene, kRuns);

  // Forward-projector smoke point: A and A*1 per view, serial.
  const ProjectorResult proj = time_projector(scene, kRuns);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_smoke: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"smoke\",\n");
  std::fprintf(out,
               "  \"geometry\": {\"nu\": %zu, \"nv\": %zu, \"np\": %zu, "
               "\"nx\": %zu, \"ny\": %zu, \"nz\": %zu},\n",
               scene.g.nu, scene.g.nv, scene.g.np, scene.g.nx, scene.g.ny,
               scene.g.nz);
  std::fprintf(out, "  \"threads\": %zu,\n  \"simd_backend\": \"%s\",\n",
               hw, active_backend);
  // Full detected feature set of the executing CPU, so a trajectory point
  // is attributable to the hardware it ran on (scalar-on-avx512-silicon vs
  // scalar-because-no-vector-units look identical without this).
  {
    const CpuFeatures& cpu = cpu_features();
    std::fprintf(out,
                 "  \"cpu\": {\"avx2\": %s, \"fma\": %s, \"avx512f\": %s, "
                 "\"avx512dq\": %s, \"avx512vl\": %s, \"neon\": %s},\n",
                 cpu.avx2 ? "true" : "false", cpu.fma ? "true" : "false",
                 cpu.avx512f ? "true" : "false",
                 cpu.avx512dq ? "true" : "false",
                 cpu.avx512vl ? "true" : "false",
                 cpu.neon ? "true" : "false");
  }
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t n = 0; n < results.size(); ++n) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"seconds\": %.6f, \"gups\": %.4f}%s\n",
                 results[n].name.c_str(), results[n].seconds, results[n].gups,
                 n + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"pipeline\": {\n"
               "    \"ranks\": %d, \"rows\": %d,\n"
               "    \"seconds\": %.6f,\n"
               "    \"overlap_efficiency\": {\"main_thread\": %.4f, "
               "\"bp_thread\": %.4f, \"reduce_thread\": %.4f, "
               "\"store_thread\": %.4f}\n"
               "  },\n",
               pipeline.ranks, pipeline.rows, pipeline.seconds,
               pipeline.efficiency.get("main_thread"),
               pipeline.efficiency.get("bp_thread"),
               pipeline.efficiency.get("reduce_thread"),
               pipeline.efficiency.get("store_thread"));
  std::fprintf(out,
               "  \"streaming\": {\n"
               "    \"ranks\": %d, \"rows\": %d, \"volumes\": %d,\n"
               "    \"seconds\": %.6f,\n"
               "    \"volumes_per_second\": %.4f,\n"
               "    \"busy_wall\": {\"main_thread\": %.4f, "
               "\"bp_thread\": %.4f, \"reduce_thread\": %.4f, "
               "\"store_thread\": %.4f}\n"
               "  },\n",
               streaming.ranks, streaming.rows, streaming.volumes,
               streaming.seconds, streaming.volumes_per_second,
               streaming.efficiency.get("main_thread"),
               streaming.efficiency.get("bp_thread"),
               streaming.efficiency.get("reduce_thread"),
               streaming.efficiency.get("store_thread"));
  std::fprintf(out,
               "  \"service\": {\n"
               "    \"ranks\": %d, \"rows\": %d, \"jobs\": %d,\n"
               "    \"seconds\": %.6f,\n"
               "    \"jobs_per_second\": %.4f,\n"
               "    \"mean_queue_latency_s\": %.6f,\n"
               "    \"rejected\": %zu,\n"
               "    \"resplits\": %zu\n"
               "  },\n",
               svc.ranks, svc.rows, svc.jobs, svc.seconds,
               svc.jobs_per_second, svc.mean_queue_latency_s, svc.rejected,
               svc.resplits);
  std::fprintf(out,
               "  \"iterative\": {\n"
               "    \"ranks\": %d, \"rows\": %d,\n"
               "    \"algorithm\": \"%s\", \"iterations\": %d,\n"
               "    \"seconds\": %.6f,\n"
               "    \"iterations_per_second\": %.4f,\n"
               "    \"residual_rmse\": [",
               iter.ranks, iter.rows, iter.stats.algorithm.c_str(),
               iter.stats.iterations_run, iter.seconds,
               iter.stats.iterations_per_second);
  for (std::size_t n = 0; n < iter.stats.residual_rmse.size(); ++n) {
    std::fprintf(out, "%s%.6f", n > 0 ? ", " : "",
                 iter.stats.residual_rmse[n]);
  }
  std::fprintf(out,
               "],\n"
               "    \"stage_seconds\": {\"load\": %.6f, \"normalize\": %.6f, "
               "\"forward\": %.6f, \"backproject\": %.6f, "
               "\"allreduce\": %.6f, \"update\": %.6f, \"store\": %.6f}\n"
               "  },\n",
               iter.stats.wall.get("load"), iter.stats.wall.get("normalize"),
               iter.stats.wall.get("forward"),
               iter.stats.wall.get("backproject"),
               iter.stats.wall.get("allreduce"), iter.stats.wall.get("update"),
               iter.stats.wall.get("store"));
  std::fprintf(out,
               "  \"compression\": {\n"
               "    \"ranks\": %d, \"rows\": %d, \"volumes\": %d,\n"
               "    \"store_bits\": %d,\n"
               "    \"seconds\": %.6f,\n"
               "    \"store_raw_bytes\": %zu,\n"
               "    \"store_stored_bytes\": %zu,\n"
               "    \"store_ratio\": %.4f,\n"
               "    \"min_store_psnr_db\": %.2f,\n"
               "    \"encode_mb_per_s\": %.2f,\n"
               "    \"decode_mb_per_s\": %.2f\n"
               "  },\n",
               comp.ranks, comp.rows, comp.volumes, comp.store_bits,
               comp.seconds, comp.store_raw_bytes, comp.store_stored_bytes,
               comp.store_ratio, comp.min_store_psnr_db, comp.encode_mb_per_s,
               comp.decode_mb_per_s);
  std::fprintf(out,
               "  \"filter\": {\n"
               "    \"fft_backend\": \"%s\",\n"
               "    \"lanes\": %zu,\n"
               "    \"rows\": [\n",
               filt.backend, filt.lanes);
  for (std::size_t n = 0; n < filt.rows.size(); ++n) {
    std::fprintf(out,
                 "      {\"name\": \"%s\", \"seconds\": %.6f, "
                 "\"rows_per_second\": %.1f}%s\n",
                 filt.rows[n].name.c_str(), filt.rows[n].seconds,
                 filt.rows[n].rows_per_second,
                 n + 1 < filt.rows.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n  },\n");
  std::fprintf(out,
               "  \"projector\": {\n"
               "    \"views\": %zu,\n"
               "    \"forward_ms_per_view\": %.4f,\n"
               "    \"ray_lengths_ms_per_view\": %.4f\n"
               "  },\n",
               proj.views, proj.forward_ms_per_view,
               proj.ray_lengths_ms_per_view);

  // The resolved decomposition of the pipeline/streaming points above: the
  // same DecompositionPlan object the runtime consumed, recorded so the
  // perf trajectory can attribute a regression to a decomposition change
  // (see docs/BENCHMARKING.md for the field reference).
  {
    IfdkOptions plan_opts;
    plan_opts.ranks = pipeline.ranks;
    plan_opts.rows = pipeline.rows;
    const DecompositionPlan plan =
        DecompositionPlan::make(scene.g, plan_opts);
    std::fprintf(out,
                 "  \"plan\": {\n"
                 "    \"rows\": %d, \"columns\": %d,\n"
                 "    \"rounds\": %zu, \"slab_h\": %zu,\n"
                 "    \"slab_extents\": [",
                 plan.grid.rows, plan.grid.columns, plan.rounds, plan.slab_h);
    for (int row = 0; row < plan.grid.rows; ++row) {
      const SlabExtent e = plan.slab_extent(row);
      std::fprintf(out, "%s[%zu, %zu, %zu, %zu]", row > 0 ? ", " : "",
                   e.low_begin, e.low_end, e.high_begin, e.high_end);
    }
    std::fprintf(out,
                 "],\n"
                 "    \"reduce_segments\": %llu,\n"
                 "    \"allgather_bytes_per_round\": %llu,\n"
                 "    \"reduce_bytes_per_epoch\": %llu,\n"
                 "    \"reduce_tag_budget\": %llu,\n"
                 "    \"device_bytes\": %llu\n"
                 "  }\n}\n",
                 static_cast<unsigned long long>(plan.reduce_segments()),
                 static_cast<unsigned long long>(
                     plan.allgather_bytes_per_round()),
                 static_cast<unsigned long long>(plan.reduce_bytes_per_epoch()),
                 static_cast<unsigned long long>(plan.reduce_tag_budget()),
                 static_cast<unsigned long long>(plan.device_bytes()));
  }
  std::fclose(out);

  std::printf("wrote %s (simd backend: %s)\n", out_path.c_str(),
              active_backend);
  for (const auto& r : results) {
    std::printf("  %-28s %9.3f ms  %7.3f GUPS\n", r.name.c_str(),
                r.seconds * 1e3, r.gups);
  }
  const double serial = results[1].seconds;
  const double pooledt = results[2].seconds;
  if (pooledt > 0.0) {
    std::printf("  pooled speedup over serial proposed: %.2fx (%zu threads)\n",
                serial / pooledt, hw);
  }
  auto seconds_of = [&](const char* name) {
    for (const auto& r : results) {
      if (r.name == name) return r.seconds;
    }
    return 0.0;
  };
  const double scalar_t = seconds_of("backproject_proposed_scalar");
  for (const simd::BackendInfo& info : simd::list_backends()) {
    if (!info.supported || info.backend == simd::Backend::kScalar) continue;
    const char* name = simd::to_string(info.backend);
    const double vec_t =
        seconds_of(("backproject_proposed_" + std::string(name)).c_str());
    if (scalar_t > 0.0 && vec_t > 0.0) {
      std::printf("  %-6s speedup over scalar backend:  %.2fx\n", name,
                  scalar_t / vec_t);
    }
  }
  std::printf("  pipeline %dx%d: %.3f s; efficiency main %.2f, bp %.2f, "
              "reduce %.2f, store %.2f\n",
              pipeline.rows, pipeline.ranks / pipeline.rows, pipeline.seconds,
              pipeline.efficiency.get("main_thread"),
              pipeline.efficiency.get("bp_thread"),
              pipeline.efficiency.get("reduce_thread"),
              pipeline.efficiency.get("store_thread"));
  std::printf("  streaming %d volumes through %dx%d: %.3f s (%.2f vol/s); "
              "busy/wall main %.2f, bp %.2f, reduce %.2f, store %.2f\n",
              streaming.volumes, streaming.rows,
              streaming.ranks / streaming.rows, streaming.seconds,
              streaming.volumes_per_second,
              streaming.efficiency.get("main_thread"),
              streaming.efficiency.get("bp_thread"),
              streaming.efficiency.get("reduce_thread"),
              streaming.efficiency.get("store_thread"));
  std::printf("  service %d jobs through %dx%d: %.3f s (%.2f jobs/s); "
              "mean queue latency %.3f s, rejected %zu, resplits %zu\n",
              svc.jobs, svc.rows, svc.ranks / svc.rows, svc.seconds,
              svc.jobs_per_second, svc.mean_queue_latency_s, svc.rejected,
              svc.resplits);
  {
    auto row_seconds = [&](const char* name) {
      for (const auto& r : filt.rows) {
        if (r.name == name) return r.seconds;
      }
      return 0.0;
    };
    const double sb = row_seconds("filter_scalar_batched");
    const double ss = row_seconds("filter_scalar_single_row");
    std::printf("  filter fft backend %s (%zu lanes): scalar %.3f ms batched"
                " / %.3f ms single-row",
                filt.backend, filt.lanes, sb * 1e3, ss * 1e3);
    for (const simd::BackendInfo& info : simd::list_backends()) {
      if (!info.supported || info.backend == simd::Backend::kScalar) continue;
      const char* name = simd::to_string(info.backend);
      const double vb =
          row_seconds(("filter_" + std::string(name) + "_batched").c_str());
      if (vb > 0.0) {
        std::printf("; %s %.3f ms batched (%.2fx over scalar)", name, vb * 1e3,
                    sb / vb);
      }
    }
    std::printf("\n");
  }
  std::printf("  compression %d volumes through %dx%d: "
              "store ratio %.3f @ %d bits (min PSNR %.1f dB); "
              "codec %.1f MB/s encode, %.1f MB/s decode\n",
              comp.volumes, comp.rows, comp.ranks / comp.rows,
              comp.store_ratio, comp.store_bits,
              comp.min_store_psnr_db, comp.encode_mb_per_s,
              comp.decode_mb_per_s);
  std::printf("  projector (serial): forward %.3f ms/view, ray_lengths "
              "%.3f ms/view\n",
              proj.forward_ms_per_view, proj.ray_lengths_ms_per_view);
  std::printf("  iterative %s x%d through %dx%d: %.3f s (%.2f iter/s); "
              "residual %.4f -> %.4f\n",
              iter.stats.algorithm.c_str(), iter.stats.iterations_run,
              iter.rows, iter.ranks / iter.rows, iter.seconds,
              iter.stats.iterations_per_second,
              iter.stats.residual_rmse.empty() ? 0.0
                                               : iter.stats.residual_rmse.front(),
              iter.stats.residual_rmse.empty() ? 0.0
                                               : iter.stats.residual_rmse.back());
  return 0;
}
