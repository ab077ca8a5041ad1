#include "ifdk/job.h"

#include <cmath>

#include "common/error.h"

namespace ifdk {

void JobSpec::validate(int volume_index) const {
  const std::string prefix =
      volume_index >= 0 ? "volume " + std::to_string(volume_index) + ": "
                        : std::string{};
  if (input_prefix.empty()) {
    throw ConfigError(prefix +
                      "input_prefix must not be empty: projections are read "
                      "from <input_prefix><s>");
  }
  if (output_prefix.empty()) {
    throw ConfigError(prefix +
                      "output_prefix must not be empty: slices are written "
                      "to <output_prefix><k>");
  }
  if (geometry.has_value()) {
    geometry->validate();
  }
  if (compress_store && (store_bits < 8 || store_bits > 16)) {
    throw ConfigError(prefix + "store_bits (" + std::to_string(store_bits) +
                      ") must be 8..16 when compress_store is set");
  }
  // NaN compares unordered with every deadline, which would break the
  // scheduler's strict weak ordering.
  if (deadline_s.has_value() && std::isnan(*deadline_s)) {
    throw ConfigError(prefix + "deadline_s must not be NaN");
  }
  if (workload == WorkloadKind::kIterative) {
    iterative.validate(volume_index);
  }
}

}  // namespace ifdk
