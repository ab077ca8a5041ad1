// Service-layer tests: the ReconService front door must (1) reject
// impossible jobs at admission with typed errors naming the numbers,
// (2) dispatch by priority then EDF-within-band — a deadline can never
// promote a job across priority bands, (3) isolate per-job failures while
// batch-mates and later jobs store bit-exactly, and (4) produce volumes
// bitwise-identical to sequential run_distributed calls, including across
// grid re-splits and an injected PFS write failure (the PR acceptance run).
// The consolidated validation messages (IfdkOptions::validate /
// JobSpec::validate) are pinned here across all three entry points.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "ifdk/framework.h"
#include "iterative/distributed.h"
#include "phantom/phantom.h"
#include "service/recon_service.h"

namespace ifdk {
namespace {

using service::AdmissionError;
using service::JobHandle;
using service::JobState;
using service::ReconService;
using service::ServiceOptions;
using service::ServiceStats;

/// Moving-lesion phantom (same idea as the streaming suite): every job
/// reconstructs a different object, so cross-job contamination in the
/// scheduler or the stream cannot cancel out.
phantom::Phantom job_phantom(double phase) {
  phantom::Phantom p;
  phantom::Ellipsoid body;
  body.semi_axes = {0.8, 0.7, 0.85};
  body.density = 0.4;
  p.ellipsoids.push_back(body);
  phantom::Ellipsoid lesion;
  lesion.center = {0.25, 0.0, 0.3 * std::sin(2.0 * kPi * phase)};
  lesion.semi_axes = {0.15, 0.15, 0.2};
  lesion.density = 0.7;
  p.ellipsoids.push_back(lesion);
  return p;
}

/// One service job plus everything needed to stage and verify it.
struct ServiceJob {
  JobSpec spec;
  geo::CbctGeometry g;
  std::vector<Image2D> projections;
};

ServiceJob make_job(std::size_t index, const geo::CbctGeometry& g) {
  ServiceJob job;
  job.g = g;
  job.projections =
      phantom::project_all(job_phantom(0.13 * static_cast<double>(index)), g);
  job.spec.input_prefix = "in" + std::to_string(index) + "/";
  job.spec.output_prefix = "out" + std::to_string(index) + "/slice_";
  return job;
}

void stage_jobs(pfs::ParallelFileSystem& fs,
                const std::vector<ServiceJob>& jobs) {
  for (const ServiceJob& job : jobs) {
    stage_projections(fs, job.spec.input_prefix, job.projections);
  }
}

/// The sequential reference: one run_distributed per job, same options.
void run_sequential(const std::vector<ServiceJob>& jobs,
                    pfs::ParallelFileSystem& fs, IfdkOptions options) {
  for (const ServiceJob& job : jobs) {
    options.input_prefix = job.spec.input_prefix;
    options.output_prefix = job.spec.output_prefix;
    run_distributed(job.g, fs, options);
  }
}

void expect_bitwise_equal_job(const pfs::ParallelFileSystem& a,
                              const pfs::ParallelFileSystem& b,
                              const ServiceJob& job,
                              const std::string& context) {
  const Volume va = load_volume(a, job.spec.output_prefix, job.g.vol_dims());
  const Volume vb = load_volume(b, job.spec.output_prefix, job.g.vol_dims());
  for (std::size_t n = 0; n < va.voxels(); ++n) {
    ASSERT_EQ(va.data()[n], vb.data()[n]) << context << ", voxel " << n;
  }
}

geo::CbctGeometry small_geometry() {
  return geo::make_standard_geometry({{32, 32, 16}, {12, 12, 12}});
}

/// PFS wrapper that fails writes under one output prefix (the same
/// fault-injection idiom the streaming suite uses).
class VolumeWriteFailFs : public pfs::ParallelFileSystem {
 public:
  explicit VolumeWriteFailFs(std::string prefix)
      : prefix_(std::move(prefix)) {}

  void write_object(const std::string& name, const void* data,
                    std::size_t bytes) override {
    if (name.rfind(prefix_, 0) == 0) {
      throw IoError("injected PFS write failure: " + name);
    }
    pfs::ParallelFileSystem::write_object(name, data, bytes);
  }

 private:
  std::string prefix_;
};

// ---- Admission --------------------------------------------------------------

TEST(ServiceAdmission, DeviceMisfitRejectsAtSubmitNamingTheNumbers) {
  pfs::ParallelFileSystem fs;
  ServiceOptions opts;
  opts.ifdk.ranks = 4;
  opts.ifdk.rows = 2;  // fixed R: the §4.1.5 doubling loop cannot rescue it
  opts.ifdk.device.memory_bytes = 4096;
  ReconService svc(small_geometry(), fs, opts);

  try {
    svc.submit(JobSpec{"in/", "out/slice_"});
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rejected at admission"), std::string::npos) << what;
    EXPECT_NE(what.find("device has 4096"), std::string::npos) << what;
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(ServiceAdmission, TagBudgetOverflowRejectsAtSubmitNamingTheNumbers) {
  // Nz = 1024 at R = 2 puts 2 * 256 * 64 * 64 = 2,097,152 floats in one
  // slab pair; one-float segments need one collective tag per float —
  // double the 1,048,576-tag communicator window. The job can never run,
  // so it must never be queued.
  pfs::ParallelFileSystem fs;
  ServiceOptions opts;
  opts.ifdk.ranks = 4;
  opts.ifdk.rows = 2;
  opts.ifdk.reduce_segment_floats = 1;
  const auto g = geo::make_standard_geometry({{8, 8, 8}, {64, 64, 1024}});
  ReconService svc(g, fs, opts);

  try {
    svc.submit(JobSpec{"in/", "out/slice_"});
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2097152"), std::string::npos) << what;
    EXPECT_NE(what.find("1048576"), std::string::npos) << what;
    EXPECT_NE(what.find("reduce_segment_floats"), std::string::npos) << what;
  }
  EXPECT_EQ(svc.stats().rejected, 1u);
}

TEST(ServiceAdmission, ByteAccountingTracksAdmissionAndCompression) {
  // Admission charges each tenant the job's raw output bytes (4 * voxels of
  // its plan) the moment it is accepted; after dispatch the service-wide
  // store counters report what the streams actually moved, so
  // ratio-of-sums is the service's achieved store compression.
  const auto g = small_geometry();  // 12^3 output = 6912 raw bytes
  std::vector<ServiceJob> jobs;
  for (std::size_t i = 0; i < 3; ++i) jobs.push_back(make_job(i, g));
  jobs[0].spec.tenant = "alice";
  jobs[1].spec.tenant = "bob";
  jobs[2].spec.tenant = "alice";
  jobs[2].spec.compress_store = true;
  jobs[2].spec.store_bits = 12;

  pfs::ParallelFileSystem fs;
  stage_jobs(fs, jobs);
  ServiceOptions opts;
  opts.ifdk.ranks = 4;
  opts.ifdk.rows = 2;
  opts.start_paused = true;
  ReconService svc(g, fs, opts);
  std::vector<JobHandle> handles;
  for (const ServiceJob& job : jobs) handles.push_back(svc.submit(job.spec));

  const std::size_t job_bytes = 12 * 12 * 12 * sizeof(float);
  const ServiceStats queued = svc.stats();
  EXPECT_EQ(queued.admitted_output_bytes, 3 * job_bytes);
  EXPECT_EQ(queued.tenants.at("alice").admitted_output_bytes, 2 * job_bytes);
  EXPECT_EQ(queued.tenants.at("bob").admitted_output_bytes, job_bytes);
  // Nothing dispatched yet: the measured counters are still zero.
  EXPECT_EQ(queued.store_raw_bytes, 0u);

  svc.drain();
  for (const JobHandle& h : handles) {
    ASSERT_EQ(h.state(), JobState::kStored) << h.error();
  }

  const ServiceStats done = svc.stats();
  EXPECT_EQ(done.admitted_output_bytes, 3 * job_bytes);
  EXPECT_EQ(done.store_raw_bytes, 3 * job_bytes);
  // One of three volumes stored compressed: fewer bytes hit the PFS than
  // were handed to the store path.
  EXPECT_LT(done.store_stored_bytes, done.store_raw_bytes);
  EXPECT_GT(done.store_stored_bytes, 2 * job_bytes);
}

// ---- Scheduling order -------------------------------------------------------

TEST(ServiceScheduling, BatchStopsGrowingBeforeTheStreamOutgrowsTheDevice) {
  // Admission checks each job alone (two slab pairs plus its own batch),
  // but a batch streams as one run_streaming call, which needs the largest
  // slab pair twice plus the largest batch. These two same-grid jobs fit
  // one at a time and not together:
  //   A: 16^2 x 8 -> 32^3: 2 * 65536 + 32768 = 163840 B alone,
  //   B: 64^2 x 8 ->  8^3: 2 * 1024 + 524288 = 526336 B alone,
  //   together: 2 * 65536 + 524288 = 655360 B > 600000 B.
  // The batcher must dispatch them as two batches, and both must store.
  const auto geom_a = geo::make_standard_geometry({{16, 16, 8}, {32, 32, 32}});
  const auto geom_b = geo::make_standard_geometry({{64, 64, 8}, {8, 8, 8}});
  std::vector<ServiceJob> jobs;
  jobs.push_back(make_job(0, geom_a));
  jobs.push_back(make_job(1, geom_b));
  for (ServiceJob& job : jobs) job.spec.geometry = job.g;

  pfs::ParallelFileSystem fs;
  stage_jobs(fs, jobs);
  ServiceOptions opts;
  opts.ifdk.ranks = 4;
  opts.ifdk.rows = 2;
  opts.ifdk.device.memory_bytes = 600000;
  opts.start_paused = true;  // both jobs queued before the first batch forms
  ReconService svc(geom_a, fs, opts);
  std::vector<JobHandle> handles;
  for (const ServiceJob& job : jobs) handles.push_back(svc.submit(job.spec));
  svc.drain();

  for (const JobHandle& h : handles) {
    EXPECT_EQ(h.state(), JobState::kStored) << h.error();
  }
  EXPECT_EQ(handles[0].dispatch_seq(), 0);
  EXPECT_EQ(handles[1].dispatch_seq(), 1);
  EXPECT_EQ(svc.stats().batches, 2u);
}

TEST(ServiceScheduling, PriorityDominatesDeadlineAcrossBands) {
  // The deadline-inversion case: the priority-0 job has the EARLIEST
  // deadline of the whole queue, but EDF applies within a band only — every
  // priority-1 job must still dispatch first, ordered by their own
  // deadlines (unset sorts last).
  std::vector<ServiceJob> jobs;
  for (std::size_t i = 0; i < 4; ++i) jobs.push_back(make_job(i, small_geometry()));
  jobs[0].spec.priority = 0;
  jobs[0].spec.deadline_s = 0.001;  // earliest deadline, lowest band
  jobs[1].spec.priority = 1;        // no deadline: last within its band
  jobs[2].spec.priority = 1;
  jobs[2].spec.deadline_s = 5.0;
  jobs[3].spec.priority = 1;
  jobs[3].spec.deadline_s = 1.0;

  pfs::ParallelFileSystem fs;
  stage_jobs(fs, jobs);
  ServiceOptions opts;
  opts.ifdk.ranks = 4;
  opts.ifdk.rows = 2;
  opts.start_paused = true;  // collect the whole queue, then dispatch once
  ReconService svc(small_geometry(), fs, opts);

  std::vector<JobHandle> handles;
  for (const ServiceJob& job : jobs) handles.push_back(svc.submit(job.spec));
  svc.drain();

  // Expected dispatch order: job3 (deadline 1.0), job2 (deadline 5.0),
  // job1 (no deadline), then — only then — job0 from the lower band.
  EXPECT_EQ(handles[3].dispatch_seq(), 0);
  EXPECT_EQ(handles[2].dispatch_seq(), 1);
  EXPECT_EQ(handles[1].dispatch_seq(), 2);
  EXPECT_EQ(handles[0].dispatch_seq(), 3);
  for (const JobHandle& h : handles) {
    EXPECT_EQ(h.state(), JobState::kStored) << h.error();
  }
}

// ---- Failure isolation ------------------------------------------------------

TEST(ServiceFailure, FailedJobIsIsolatedAndHealthyJobsStoreBitExactly) {
  std::vector<ServiceJob> jobs;
  for (std::size_t i = 0; i < 3; ++i) jobs.push_back(make_job(i, small_geometry()));

  IfdkOptions run_opts;
  run_opts.ranks = 4;
  run_opts.rows = 2;
  pfs::ParallelFileSystem fs_seq;
  stage_jobs(fs_seq, jobs);
  run_sequential(jobs, fs_seq, run_opts);

  VolumeWriteFailFs fs(jobs[1].spec.output_prefix);
  stage_jobs(fs, jobs);
  ServiceOptions opts;
  opts.ifdk = run_opts;
  opts.start_paused = true;  // one batch: in-batch isolation is the point
  ReconService svc(small_geometry(), fs, opts);
  std::vector<JobHandle> handles;
  for (const ServiceJob& job : jobs) handles.push_back(svc.submit(job.spec));
  svc.drain();

  EXPECT_EQ(handles[0].wait(), JobState::kStored) << handles[0].error();
  EXPECT_EQ(handles[1].wait(), JobState::kFailed);
  EXPECT_NE(handles[1].error().find("injected PFS write failure"),
            std::string::npos)
      << handles[1].error();
  EXPECT_EQ(handles[2].wait(), JobState::kStored) << handles[2].error();

  expect_bitwise_equal_job(fs_seq, fs, jobs[0], "behind a failed batch-mate");
  expect_bitwise_equal_job(fs_seq, fs, jobs[2], "behind a failed batch-mate");

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.stored, 2u);
  EXPECT_EQ(stats.failed, 1u);

  // The service survives the failure: a job submitted afterwards runs.
  ServiceJob late = make_job(9, small_geometry());
  stage_projections(fs, late.spec.input_prefix, late.projections);
  JobHandle h = svc.submit(late.spec);
  EXPECT_EQ(h.wait(), JobState::kStored) << h.error();
}

// ---- The acceptance run -----------------------------------------------------

TEST(ServiceAcceptance, MixedPriorityJobsMatchSequentialBitwise) {
  // N mixed-priority jobs through one service, including (a) a geometry
  // whose plan resolves a different R (forcing a grid re-split between
  // batches) and (b) one job with an injected PFS write failure. Every
  // healthy job's volume must be bitwise-identical to a sequential
  // run_distributed call; the failed job is reported on its handle.
  const auto geom_a = small_geometry();  // R=1 under the budget below
  const auto geom_b =
      geo::make_standard_geometry({{32, 32, 16}, {12, 12, 16}});  // R=2

  IfdkOptions run_opts;
  run_opts.ranks = 4;
  run_opts.rows = 0;  // auto-select via Eq. (7)
  run_opts.microbench.sub_volume_bytes = 8192;  // 12^3 once, 12*12*16 twice

  std::vector<ServiceJob> jobs;
  jobs.push_back(make_job(0, geom_a));
  jobs.push_back(make_job(1, geom_b));
  jobs.push_back(make_job(2, geom_a));  // the poisoned job
  jobs.push_back(make_job(3, geom_a));
  jobs.push_back(make_job(4, geom_b));
  jobs[0].spec.tenant = "alice";
  jobs[0].spec.priority = 1;
  jobs[1].spec.tenant = "bob";
  jobs[1].spec.priority = 1;
  jobs[2].spec.tenant = "alice";
  jobs[2].spec.priority = 0;
  jobs[3].spec.tenant = "bob";
  jobs[3].spec.priority = 0;
  jobs[4].spec.tenant = "carol";
  jobs[4].spec.priority = 2;
  jobs[4].spec.deadline_s = 10.0;
  for (ServiceJob& job : jobs) job.spec.geometry = job.g;

  pfs::ParallelFileSystem fs_seq;
  stage_jobs(fs_seq, jobs);
  run_sequential(jobs, fs_seq, run_opts);

  VolumeWriteFailFs fs(jobs[2].spec.output_prefix);
  stage_jobs(fs, jobs);
  ServiceOptions opts;
  opts.ifdk = run_opts;
  opts.start_paused = true;
  ReconService svc(geom_a, fs, opts);

  std::vector<JobHandle> handles;
  for (const ServiceJob& job : jobs) handles.push_back(svc.submit(job.spec));
  // Predictions are published for the whole queue before anything runs.
  for (const JobHandle& h : handles) {
    EXPECT_GT(h.predicted_completion_s(), 0.0);
  }
  svc.drain();

  // Dispatch order: job4 (band 2), then band 1 in submit order (job0,
  // job1), then band 0 (job2, job3). Grids along that order are
  // B, A, B, A, A — so batches are {4}, {0}, {1}, {2, 3} and the scheduler
  // re-split three times.
  EXPECT_EQ(handles[4].dispatch_seq(), 0);
  EXPECT_EQ(handles[0].dispatch_seq(), 1);
  EXPECT_EQ(handles[1].dispatch_seq(), 2);
  EXPECT_EQ(handles[2].dispatch_seq(), 3);
  EXPECT_EQ(handles[3].dispatch_seq(), 4);

  for (const std::size_t healthy : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{4}}) {
    EXPECT_EQ(handles[healthy].state(), JobState::kStored)
        << "job " << healthy << ": " << handles[healthy].error();
    expect_bitwise_equal_job(fs_seq, fs, jobs[healthy],
                             "job " + std::to_string(healthy));
  }
  EXPECT_EQ(handles[2].state(), JobState::kFailed);
  EXPECT_NE(handles[2].error().find("injected PFS write failure"),
            std::string::npos)
      << handles[2].error();

  // The re-split jobs really resolved different grids.
  EXPECT_EQ(handles[0].grid().rows, 1);
  EXPECT_EQ(handles[1].grid().rows, 2);

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.stored, 4u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.resplits, 3u);
  EXPECT_GT(stats.jobs_per_second, 0.0);
  EXPECT_GE(stats.mean_queue_latency_s, 0.0);
  ASSERT_EQ(stats.tenants.count("alice"), 1u);
  EXPECT_EQ(stats.tenants.at("alice").submitted, 2u);
  EXPECT_EQ(stats.tenants.at("alice").stored, 1u);
  EXPECT_EQ(stats.tenants.at("alice").failed, 1u);
  EXPECT_EQ(stats.tenants.at("carol").stored, 1u);
  EXPECT_GT(stats.tenants.at("carol").volumes_per_second, 0.0);

  // Per-job stage timings: the stream that carried the job.
  EXPECT_GT(handles[0].wall().get("backprojection"), 0.0);
  EXPECT_GE(handles[0].queue_latency_s(), 0.0);
}

TEST(ServiceAcceptance, MixedFdkAndIterativeQueueWithFailureIsolation) {
  // The mixed-workload acceptance run: FDK and iterative jobs ride ONE
  // queue. The dispatcher may only batch a same-workload prefix — submit
  // order FDK, ITER, FDK, ITER, ITER must dispatch as four batches
  // {0}, {1}, {2}, {3, 4} — every job gets a predicted completion from the
  // mixed-queue recurrence before anything runs, an injected PFS write
  // failure on one iterative job fails only that job (its iterative
  // batch-mate still stores), and every healthy job's volume is
  // bitwise-identical to a direct run_distributed / run_iterative call.
  const auto g = small_geometry();
  IfdkOptions run_opts;
  run_opts.ranks = 4;
  run_opts.rows = 2;

  std::vector<ServiceJob> jobs;
  for (std::size_t i = 0; i < 5; ++i) jobs.push_back(make_job(i, g));
  for (const std::size_t iter_job : {std::size_t{1}, std::size_t{3},
                                     std::size_t{4}}) {
    jobs[iter_job].spec.workload = WorkloadKind::kIterative;
    jobs[iter_job].spec.iterative.iterations = 2;
  }
  jobs[4].spec.iterative.algorithm = iterative::Algorithm::kMlem;

  // The references: sequential FDK runs plus direct run_iterative calls
  // with the identical options (both are deterministic, so "same entry
  // point, no scheduler" is the bitwise yardstick).
  pfs::ParallelFileSystem fs_ref;
  stage_jobs(fs_ref, jobs);
  for (const std::size_t fdk_job : {std::size_t{0}, std::size_t{2}}) {
    IfdkOptions o = run_opts;
    o.input_prefix = jobs[fdk_job].spec.input_prefix;
    o.output_prefix = jobs[fdk_job].spec.output_prefix;
    run_distributed(g, fs_ref, o);
  }
  for (const std::size_t iter_job : {std::size_t{1}, std::size_t{4}}) {
    iterative::run_iterative(g, fs_ref, run_opts, jobs[iter_job].spec);
  }

  VolumeWriteFailFs fs(jobs[3].spec.output_prefix);
  stage_jobs(fs, jobs);
  ServiceOptions opts;
  opts.ifdk = run_opts;
  opts.start_paused = true;  // collect the whole mixed queue first
  ReconService svc(g, fs, opts);
  std::vector<JobHandle> handles;
  for (const ServiceJob& job : jobs) handles.push_back(svc.submit(job.spec));

  // Per-job predicted completions over the MIXED queue, before anything
  // runs: positive and nondecreasing along the dispatch order.
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_GT(handles[i].predicted_completion_s(), 0.0) << "job " << i;
    if (i > 0) {
      EXPECT_GE(handles[i].predicted_completion_s(),
                handles[i - 1].predicted_completion_s())
          << "job " << i;
    }
  }
  svc.drain();

  // Same priority everywhere: dispatch order is submit order, but the
  // workload boundary splits it into four batches (the FDK singletons, the
  // iterative singleton, and the iterative pair).
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(handles[i].dispatch_seq(), static_cast<int>(i));
  }
  EXPECT_EQ(svc.stats().batches, 4u);

  for (const std::size_t healthy : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(handles[healthy].state(), JobState::kStored)
        << "job " << healthy << ": " << handles[healthy].error();
    expect_bitwise_equal_job(fs_ref, fs, jobs[healthy],
                             "mixed-queue job " + std::to_string(healthy));
  }
  // The poisoned iterative job failed alone — its batch-mate (job 4, same
  // iterative batch) and every FDK job stored bit-exactly above.
  EXPECT_EQ(handles[3].state(), JobState::kFailed);
  EXPECT_NE(handles[3].error().find("injected PFS write failure"),
            std::string::npos)
      << handles[3].error();

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.stored, 4u);
  EXPECT_EQ(stats.failed, 1u);
  // Iterative handles publish the grid their plan resolved, like FDK ones.
  EXPECT_EQ(handles[1].grid().rows, 2);
  EXPECT_EQ(handles[1].grid().columns, 2);
}

// ---- Validation consolidation ----------------------------------------------

TEST(ValidationConsolidation, OptionErrorsAreIdenticalAcrossEntryPoints) {
  // The pinned pre-run messages must come out of IfdkOptions::validate /
  // DecompositionPlan::make verbatim from every entry point: run_distributed,
  // run_streaming, and the service front door.
  const auto g = small_geometry();
  IfdkOptions opts;
  opts.ranks = 3;
  opts.rows = 2;
  const auto expect_fragments = [](const std::string& what) {
    EXPECT_NE(what.find("ranks (3)"), std::string::npos) << what;
    EXPECT_NE(what.find("row count R (2)"), std::string::npos) << what;
  };

  pfs::ParallelFileSystem fs;
  try {
    run_distributed(g, fs, opts);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    expect_fragments(e.what());
  }
  const std::vector<JobSpec> volumes = {JobSpec{"in/", "out/slice_"}};
  try {
    run_streaming(g, fs, opts, volumes);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    // Streaming prefixes the offending volume, wording otherwise identical.
    EXPECT_NE(std::string(e.what()).find("volume 0"), std::string::npos);
    expect_fragments(e.what());
  }
  try {
    ServiceOptions bad;
    bad.ifdk = opts;
    ReconService svc_bad(g, fs, bad);
    JobHandle h = svc_bad.submit(JobSpec{"in/", "out/slice_"});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    expect_fragments(e.what());
  }
}

TEST(ValidationConsolidation, OptionInvariantsThrowBeforeAnyWork) {
  const auto g = small_geometry();
  pfs::ParallelFileSystem fs;
  {
    IfdkOptions opts;
    opts.ranks = 0;
    try {
      run_distributed(g, fs, opts);
      FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("ranks (0) must be at least 1"),
                std::string::npos)
          << e.what();
    }
  }
  {
    IfdkOptions opts;
    opts.ranks = 4;
    opts.rows = 2;
    opts.reduce_segment_floats = 0;
    EXPECT_THROW(run_distributed(g, fs, opts), ConfigError);
    // The service rejects the same misconfiguration at construction.
    ServiceOptions sopts;
    sopts.ifdk = opts;
    EXPECT_THROW(ReconService(g, fs, sopts), ConfigError);
  }
}

TEST(ValidationConsolidation, JobSpecErrorsNameTheFieldAndVolume) {
  const auto g = small_geometry();
  pfs::ParallelFileSystem fs;
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 2;

  // Direct: the one-line contract of JobSpec::validate.
  try {
    JobSpec{"", "out/slice_"}.validate();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("input_prefix must not be empty"),
              std::string::npos)
        << e.what();
  }

  // Streaming names the offending volume.
  const std::vector<JobSpec> volumes = {JobSpec{"in0/", "out0/slice_"},
                                        JobSpec{"in1/", ""}};
  try {
    run_streaming(g, fs, opts, volumes);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("volume 1"), std::string::npos) << what;
    EXPECT_NE(what.find("output_prefix must not be empty"), std::string::npos)
        << what;
  }

  // NaN compares unordered, so it must not reach the scheduler's sort (a
  // NaN deadline) or the early-stop compare (a NaN stop_rmse).
  JobSpec nan_deadline{"in/", "out/slice_"};
  nan_deadline.deadline_s = std::numeric_limits<double>::quiet_NaN();
  JobSpec nan_stop{"in/", "out/slice_"};
  nan_stop.workload = WorkloadKind::kIterative;
  nan_stop.iterative.stop_rmse = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<JobSpec, std::string>> nan_specs = {
      {nan_deadline, "deadline_s"}, {nan_stop, "stop_rmse"}};
  for (const auto& [spec, field] : nan_specs) {
    try {
      spec.validate();
      ADD_FAILURE() << "expected ConfigError for a NaN " << field;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }

  // The service checks the same contract before admission.
  ServiceOptions sopts;
  sopts.ifdk = opts;
  ReconService svc(g, fs, sopts);
  EXPECT_THROW(svc.submit(JobSpec{"", "out/slice_"}), ConfigError);
  for (const auto& [spec, field] : nan_specs) {
    try {
      svc.submit(spec);
      ADD_FAILURE() << "expected ConfigError at submit for a NaN " << field;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

// ---- StreamingStats::grid single-source-of-truth ---------------------------

TEST(StreamingStatsGrid, AlwaysMatchesFirstExecutedPlan) {
  // The summary field is populated from the executed plan sequence in one
  // place: a volume-0 geometry override must drive BOTH fields identically.
  const auto geom_run = small_geometry();  // would resolve R=1 at this budget
  const auto geom_v0 =
      geo::make_standard_geometry({{32, 32, 16}, {12, 12, 16}});  // R=2
  IfdkOptions opts;
  opts.ranks = 4;
  opts.rows = 0;
  opts.microbench.sub_volume_bytes = 8192;

  pfs::ParallelFileSystem fs;
  ServiceJob job = make_job(0, geom_v0);
  stage_projections(fs, job.spec.input_prefix, job.projections);
  job.spec.geometry = geom_v0;
  const std::vector<JobSpec> volumes = {job.spec};
  const StreamingStats stats = run_streaming(geom_run, fs, opts, volumes);
  ASSERT_EQ(stats.plans.size(), 1u);
  EXPECT_EQ(stats.grid.rows, stats.plans[0].grid.rows);
  EXPECT_EQ(stats.grid.columns, stats.plans[0].grid.columns);
  EXPECT_EQ(stats.grid.rows, 2);  // the override's grid, not the run's

  // Zero volumes: fall back to the run geometry's plan.
  const StreamingStats empty =
      run_streaming(geom_run, fs, opts, std::span<const JobSpec>{});
  EXPECT_EQ(empty.grid.rows, 1);
  EXPECT_TRUE(empty.plans.empty());
}

}  // namespace
}  // namespace ifdk
