// Regenerates the Section 4.2.1 micro-benchmarks: the constants the iFDK
// performance model consumes (BWload/BWstore via an IOR-like sweep over the
// PFS model, BWPCIe via the device model, THflt measured on the real CPU
// filtering kernel, collective throughputs via minimpi on in-process ranks).
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "filter/filter_engine.h"
#include "gpusim/device.h"
#include "minimpi/minimpi.h"
#include "pfs/pfs.h"

namespace {

using namespace ifdk;

void pfs_ior_sweep() {
  std::printf("\n--- IOR-like PFS sweep (model) ---\n");
  pfs::ParallelFileSystem fs;
  TextTable t({"object size", "write GB/s (eff)", "read GB/s (eff)",
               "stripe util"});
  for (std::uint64_t mb : {1ull, 16ull, 64ull, 256ull, 1024ull}) {
    const std::uint64_t bytes = mb << 20;
    const double w = fs.estimate_write_seconds(bytes);
    const double r = fs.estimate_read_seconds(bytes);
    t.row()
        .add(std::to_string(mb) + " MiB")
        .add(static_cast<double>(bytes) / w / 1e9, 2)
        .add(static_cast<double>(bytes) / r / 1e9, 2)
        .add(fs.stripe_utilization(bytes), 2);
  }
  std::printf("%s", t.str().c_str());
  std::printf("(paper: GPFS sequential write 28.5 GB/s)\n");
}

void pcie_sweep() {
  std::printf("\n--- PCIe bandwidthTest (device model) ---\n");
  const gpusim::DeviceSpec spec;
  TextTable t({"transfer", "modeled GB/s"});
  for (std::uint64_t mb : {1ull, 16ull, 64ull, 256ull}) {
    const std::uint64_t bytes = mb << 20;
    const double secs = spec.pcie_latency_s +
                        static_cast<double>(bytes) /
                            spec.pcie_bandwidth_bytes_per_s;
    t.row()
        .add(std::to_string(mb) + " MiB H2D")
        .add(static_cast<double>(bytes) / secs / 1e9, 2);
  }
  std::printf("%s", t.str().c_str());
  std::printf("(paper: 11.9 GB/s per PCIe gen3 x16 link)\n");
}

void filter_throughput() {
  std::printf("\n--- filtering throughput (real CPU kernel) ---\n");
  TextTable t({"projection", "window", "proj/s (1 core)"});
  for (std::size_t nu : {256u, 512u}) {
    const Problem p{{nu, nu, 16}, {64, 64, 64}};
    bench::Scene scene = bench::make_scene(p);
    for (auto window : {filter::RampWindow::kRamLak,
                        filter::RampWindow::kHann}) {
      filter::FilterOptions fo;
      fo.window = window;
      filter::FilterEngine engine(scene.g, fo);
      Image2D img(nu, nu, false);
      for (std::size_t n = 0; n < img.pixels(); ++n) {
        img.data()[n] = scene.projections[0].data()[n];
      }
      const double secs =
          bench::median_seconds(3, [&] { engine.apply(img); });
      t.row()
          .add(std::to_string(nu) + "^2")
          .add(filter::to_string(window))
          .add(1.0 / secs, 1);
    }
  }
  std::printf("%s", t.str().c_str());
  std::printf("(paper: 366 proj/s per 40-core node at 2048^2 with IPP)\n");
}

void collective_throughput() {
  std::printf("\n--- minimpi collective throughput (in-process ranks) ---\n");
  TextTable t({"collective", "ranks", "payload", "ms/op"});
  for (int ranks : {4, 8}) {
    for (std::size_t kb : {64u, 1024u}) {
      const std::size_t bytes = kb << 10;
      double ag_ms = 0, red_ms = 0;
      mpi::run_world(ranks, [&](mpi::Comm& comm) {
        std::vector<float> send(bytes / sizeof(float), 1.0f);
        std::vector<float> recv(send.size() *
                                static_cast<std::size_t>(comm.size()));
        Timer timer;
        constexpr int kIters = 20;
        for (int i = 0; i < kIters; ++i) {
          comm.allgather(send.data(), bytes, recv.data());
        }
        if (comm.rank() == 0) ag_ms = timer.milliseconds() / kIters;
        comm.barrier();
        Timer timer2;
        std::vector<float> red(send.size());
        for (int i = 0; i < kIters; ++i) {
          comm.reduce(send.data(), red.data(), send.size(),
                      mpi::ReduceOp::kSum, 0);
        }
        if (comm.rank() == 0) red_ms = timer2.milliseconds() / kIters;
      });
      t.row()
          .add("AllGather")
          .add(static_cast<std::int64_t>(ranks))
          .add(std::to_string(kb) + " KiB")
          .add(ag_ms, 3);
      t.row()
          .add("Reduce")
          .add(static_cast<std::int64_t>(ranks))
          .add(std::to_string(kb) + " KiB")
          .add(red_ms, 3);
    }
  }
  std::printf("%s", t.str().c_str());
}

}  // namespace

int main() {
  bench::print_header("Micro-benchmarks", "paper Section 4.2.1");
  pfs_ior_sweep();
  pcie_sweep();
  filter_throughput();
  collective_throughput();
  return 0;
}
