// Simulated GPU device (the V100 of the paper's testbed).
//
// There is no CUDA here; what this module preserves from the paper are the
// *constraints and costs* the framework is designed around:
//   * finite device memory (16 GB on the paper's V100s) — the plan's memory
//     check (DecompositionPlan::check_device_fit) throws DeviceOutOfMemory
//     beyond it, which is what forces the R-selection rule of Section 4.1.5;
//   * the host<->device link, priced as latency + bytes / BW_PCIe
//     (BW_PCIe = 11.9 GB/s measured by bandwidthTest, Section 5.3.3);
//   * kernel execution priced by the Table-4-calibrated KernelModel
//     (kernel_model.h).
#pragma once

#include <cstdint>
#include <string>

namespace ifdk::gpusim {

/// The modeled device's capacity and link costs.
struct DeviceSpec {
  std::string name = "Tesla V100-SXM2-16GB (simulated)";
  std::uint64_t memory_bytes = 16ull << 30;
  /// Effective host<->device bandwidth of one PCIe gen3 x16 link, as measured
  /// by Nvidia's bandwidthTest on ABCI (Section 5.3.3).
  double pcie_bandwidth_bytes_per_s = 11.9e9;
  /// Per-transfer latency (driver + DMA setup).
  double pcie_latency_s = 10e-6;
};

}  // namespace ifdk::gpusim
