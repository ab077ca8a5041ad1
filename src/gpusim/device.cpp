#include "gpusim/device.h"

#include <cstring>

#include "common/math_util.h"

namespace ifdk::gpusim {

void DeviceBuffer::release() {
  if (device_ != nullptr) {
    device_->free_buffer(id_);
    delete[] data_;
  }
  device_ = nullptr;
  data_ = nullptr;
  size_ = 0;
  id_ = 0;
}

Device::Device(DeviceSpec spec) : spec_(std::move(spec)) {
  IFDK_REQUIRE(spec_.memory_bytes > 0, "device memory must be positive");
  IFDK_REQUIRE(spec_.pcie_bandwidth_bytes_per_s > 0,
               "PCIe bandwidth must be positive");
}

Device::~Device() {
  IFDK_ASSERT_MSG(live_.empty(),
                  "device destroyed while buffers are still allocated");
}

DeviceBuffer Device::allocate(std::uint64_t bytes) {
  const std::uint64_t rounded = round_up(bytes, sizeof(float));
  if (rounded > free_bytes()) {
    throw DeviceOutOfMemory(
        "device allocation of " + human_bytes(rounded) + " exceeds free " +
        human_bytes(free_bytes()) + " of " + human_bytes(spec_.memory_bytes));
  }
  DeviceBuffer buf;
  buf.device_ = this;
  buf.id_ = next_id_++;
  buf.size_ = rounded;
  buf.data_ = new float[rounded / sizeof(float)];
  used_ += rounded;
  live_[buf.id_] = rounded;
  return buf;
}

void Device::free_buffer(std::uint64_t id) {
  auto it = live_.find(id);
  IFDK_ASSERT_MSG(it != live_.end(), "double free of a device buffer");
  used_ -= it->second;
  live_.erase(it);
}

double Device::h2d(DeviceBuffer& dst, const float* src, std::uint64_t bytes,
                   std::uint64_t dst_offset_bytes) {
  IFDK_ASSERT(dst.valid() && dst.device_ == this);
  IFDK_ASSERT(dst_offset_bytes + bytes <= dst.size());
  if (bytes > 0) {
    std::memcpy(reinterpret_cast<char*>(dst.data()) + dst_offset_bytes, src,
                bytes);
  }
  const double cost = spec_.pcie_latency_s +
                      static_cast<double>(bytes) /
                          spec_.pcie_bandwidth_bytes_per_s;
  t_h2d_ += cost;
  return cost;
}

double Device::d2h(float* dst, const DeviceBuffer& src, std::uint64_t bytes,
                   std::uint64_t src_offset_bytes) {
  IFDK_ASSERT(src.valid() && src.device_ == this);
  IFDK_ASSERT(src_offset_bytes + bytes <= src.size());
  if (bytes > 0) {
    std::memcpy(dst,
                reinterpret_cast<const char*>(src.data()) + src_offset_bytes,
                bytes);
  }
  const double cost = spec_.pcie_latency_s +
                      static_cast<double>(bytes) /
                          spec_.pcie_bandwidth_bytes_per_s;
  t_d2h_ += cost;
  return cost;
}

void Device::charge_kernel(double seconds) {
  IFDK_ASSERT(seconds >= 0);
  t_kernel_ += spec_.launch_latency_s + seconds;
}

}  // namespace ifdk::gpusim
