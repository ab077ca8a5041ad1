// Simulated GPU device (the V100 of the paper's testbed).
//
// There is no CUDA here; what this module preserves from the paper are the
// *constraints and costs* the framework is designed around:
//   * finite device memory (16 GB on the paper's V100s) — allocation beyond
//     capacity throws DeviceOutOfMemory, which is what forces the R-selection
//     rule of Section 4.1.5;
//   * explicit host<->device transfers priced by a PCIe bandwidth/latency
//     model (BW_PCIe = 11.9 GB/s measured by bandwidthTest, Section 5.3.3);
//   * kernel execution priced by the Table-4-calibrated KernelModel.
//
// Transfers and kernel launches actually execute on the CPU (memcpy / the
// real back-projection kernels); the Device additionally keeps a *virtual
// clock ledger* of what the same operations would have cost on the paper's
// hardware, which the benches report alongside CPU wall time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/error.h"

namespace ifdk::gpusim {

struct DeviceSpec {
  std::string name = "Tesla V100-SXM2-16GB (simulated)";
  std::uint64_t memory_bytes = 16ull << 30;
  /// Effective host<->device bandwidth of one PCIe gen3 x16 link, as measured
  /// by Nvidia's bandwidthTest on ABCI (Section 5.3.3).
  double pcie_bandwidth_bytes_per_s = 11.9e9;
  /// Per-transfer latency (driver + DMA setup).
  double pcie_latency_s = 10e-6;
  /// Kernel launch overhead.
  double launch_latency_s = 5e-6;
};

/// RAII handle to a device allocation. Move-only; frees on destruction.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  DeviceBuffer(DeviceBuffer&& other) noexcept { swap(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  ~DeviceBuffer() { release(); }

  std::uint64_t size() const { return size_; }
  bool valid() const { return device_ != nullptr; }

  /// "Device memory" is plain host memory; kernels read/write it directly
  /// (the simulation boundary is the accounting, not the storage).
  float* data() { return data_; }
  const float* data() const { return data_; }

  void release();

 private:
  friend class Device;
  class Device* device_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t size_ = 0;
  float* data_ = nullptr;

  void swap(DeviceBuffer& other) noexcept {
    std::swap(device_, other.device_);
    std::swap(id_, other.id_);
    std::swap(size_, other.size_);
    std::swap(data_, other.data_);
  }
};

class Device {
 public:
  explicit Device(DeviceSpec spec = {});
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceSpec& spec() const { return spec_; }

  /// Allocates `bytes` of device memory (rounded up to whole floats).
  /// Throws DeviceOutOfMemory when the remaining capacity is insufficient —
  /// the exact situation Eq. (7)'s R-selection avoids.
  DeviceBuffer allocate(std::uint64_t bytes);

  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t free_bytes() const { return spec_.memory_bytes - used_; }

  /// Host -> device copy. Performs the real memcpy and charges the virtual
  /// clock with latency + bytes / BW_PCIe. Returns the charged seconds.
  double h2d(DeviceBuffer& dst, const float* src, std::uint64_t bytes,
             std::uint64_t dst_offset_bytes = 0);

  /// Device -> host copy, same accounting.
  double d2h(float* dst, const DeviceBuffer& src, std::uint64_t bytes,
             std::uint64_t src_offset_bytes = 0);

  /// Charges `seconds` of kernel time to the virtual clock (the caller ran
  /// the kernel on the CPU and computed the V100-equivalent cost from the
  /// KernelModel).
  void charge_kernel(double seconds);

  // Virtual-clock ledger (seconds the modeled V100 would have spent).
  double virtual_h2d_seconds() const { return t_h2d_; }
  double virtual_d2h_seconds() const { return t_d2h_; }
  double virtual_kernel_seconds() const { return t_kernel_; }
  double virtual_total_seconds() const { return t_h2d_ + t_d2h_ + t_kernel_; }

 private:
  friend class DeviceBuffer;
  void free_buffer(std::uint64_t id);

  DeviceSpec spec_;
  std::uint64_t used_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::uint64_t> live_;  // id -> bytes
  double t_h2d_ = 0;
  double t_d2h_ = 0;
  double t_kernel_ = 0;
};

}  // namespace ifdk::gpusim
