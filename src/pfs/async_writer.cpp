#include "pfs/async_writer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/timer.h"
#include "common/volume.h"
#include "postproc/compression.h"

namespace ifdk::pfs {

double StreamStats::psnr_db() const {
  if (values == 0 || sum_squared_error == 0) {
    return std::numeric_limits<double>::infinity();
  }
  if (peak <= 0) return std::numeric_limits<double>::quiet_NaN();
  const double mse = sum_squared_error / static_cast<double>(values);
  return 10.0 * std::log10(peak * peak / mse);
}

void StreamStats::merge(const StreamStats& other) {
  raw_bytes += other.raw_bytes;
  stored_bytes += other.stored_bytes;
  sum_squared_error += other.sum_squared_error;
  peak = std::max(peak, other.peak);
  values += other.values;
}

std::vector<float> read_compressed_object(const ParallelFileSystem& fs,
                                          const std::string& name) {
  const std::size_t bytes = fs.object_size(name);
  std::vector<std::uint8_t> blob(bytes);
  fs.read_object(name, blob.data(), bytes);
  const postproc::CompressedVolume cv =
      postproc::deserialize_volume(blob.data(), blob.size());
  const Volume volume = postproc::decompress(cv);
  return std::vector<float>(volume.data(), volume.data() + volume.voxels());
}

AsyncWriter::AsyncWriter(ParallelFileSystem& fs, std::size_t queue_capacity)
    : fs_(fs),
      queue_(queue_capacity),
      worker_([this] { run(); }) {}

AsyncWriter::~AsyncWriter() {
  queue_.close();
  if (worker_.joinable()) worker_.join();
}

AsyncWriter::StreamId AsyncWriter::open_stream(
    std::optional<StreamCompression> compression) {
  IFDK_REQUIRE(!finished_, "AsyncWriter: open_stream after finish()");
  IFDK_REQUIRE(!compression || (compression->bits >= 8 &&
                                compression->bits <= 16),
               "AsyncWriter: store quantization depth must be 8..16 bits");
  std::lock_guard<std::mutex> lock(mutex_);
  streams_.emplace_back();
  streams_.back().compression = compression;
  return streams_.size() - 1;
}

StreamStats AsyncWriter::stream_stats(StreamId stream) const {
  std::lock_guard<std::mutex> lock(mutex_);
  IFDK_ASSERT_MSG(stream < streams_.size(),
                  "AsyncWriter: stream_stats on an unopened stream");
  return streams_[stream].stats;
}

bool AsyncWriter::enqueue(StreamId stream, std::string name,
                          std::vector<float> payload) {
  IFDK_REQUIRE(!finished_, "AsyncWriter: enqueue after finish()");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    IFDK_ASSERT_MSG(stream < streams_.size(),
                    "AsyncWriter: enqueue on an unopened stream");
    // A poisoned stream accepts no further work; the caller learns the
    // root cause from finish_stream(). Other streams are unaffected.
    if (streams_[stream].error) return false;
    ++streams_[stream].pending;
  }
  if (!queue_.push(Item{stream, std::move(name), std::move(payload)})) {
    // Only finish()/the destructor close the queue: pushing afterwards is a
    // protocol violation, not a writer failure.
    std::lock_guard<std::mutex> lock(mutex_);
    --streams_[stream].pending;
    throw Error("AsyncWriter: queue closed before enqueue completed");
  }
  return true;
}

void AsyncWriter::finish_stream(StreamId stream) {
  std::unique_lock<std::mutex> lock(mutex_);
  IFDK_ASSERT_MSG(stream < streams_.size(),
                  "AsyncWriter: finish_stream on an unopened stream");
  drained_.wait(lock, [&] { return streams_[stream].pending == 0; });
  StreamState& state = streams_[stream];
  if (state.error && !state.error_claimed) {
    state.error_claimed = true;
    std::exception_ptr e = state.error;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void AsyncWriter::finish() {
  if (!finished_) {
    finished_ = true;
    queue_.close();
    if (worker_.joinable()) worker_.join();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  for (StreamState& state : streams_) {
    if (state.error && !state.error_claimed) {
      state.error_claimed = true;
      std::exception_ptr e = state.error;
      lock.unlock();
      std::rethrow_exception(e);
    }
  }
}

double AsyncWriter::busy_seconds() const {
  return busy_seconds_.load(std::memory_order_relaxed);
}

void AsyncWriter::run() {
  while (auto item = queue_.pop()) {
    bool poisoned;
    std::optional<StreamCompression> compression;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      poisoned = static_cast<bool>(streams_[item->stream].error);
      compression = streams_[item->stream].compression;
    }
    if (!poisoned) {
      try {
        Timer t;
        const std::size_t n = item->payload.size();
        const std::size_t raw_bytes = n * sizeof(float);
        StreamStats delta;
        delta.raw_bytes = raw_bytes;
        if (compression && n > 0) {
          // Compress on the writer thread (overlapping the producer, like
          // the write itself), store the self-contained serialized object,
          // and account the quantization error by round-tripping the codec
          // — the exact values a reader will see.
          Volume vol(n, 1, 1, VolumeLayout::kXMajor, /*zero_fill=*/false);
          std::memcpy(vol.data(), item->payload.data(), raw_bytes);
          const postproc::CompressedVolume cv =
              postproc::compress(vol, compression->bits);
          const std::vector<std::uint8_t> blob =
              postproc::serialize_volume(cv);
          fs_.write_object(item->name, blob.data(), blob.size());
          delta.stored_bytes = blob.size();
          const Volume rec = postproc::decompress(cv);
          delta.values = n;
          for (std::size_t i = 0; i < n; ++i) {
            const double v = vol.data()[i];
            const double d = v - static_cast<double>(rec.data()[i]);
            delta.sum_squared_error += d * d;
            delta.peak = std::max(delta.peak, std::abs(v));
          }
        } else {
          fs_.write_object(item->name, item->payload.data(), raw_bytes);
          delta.stored_bytes = raw_bytes;
        }
        busy_seconds_.store(busy_seconds_.load(std::memory_order_relaxed) +
                                t.seconds(),
                            std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(mutex_);
          StreamStats& stats = streams_[item->stream].stats;
          stats.raw_bytes += delta.raw_bytes;
          stats.stored_bytes += delta.stored_bytes;
          stats.sum_squared_error += delta.sum_squared_error;
          stats.peak = std::max(stats.peak, delta.peak);
          stats.values += delta.values;
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        streams_[item->stream].error = std::current_exception();
      }
    }
    // Written or dropped: either way the item is no longer pending.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --streams_[item->stream].pending;
    }
    drained_.notify_all();
  }
}

}  // namespace ifdk::pfs
