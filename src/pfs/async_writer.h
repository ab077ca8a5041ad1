// Asynchronous PFS store path (the Fig. 4b "Store"-stage overlap).
//
// The paper's row root must write Nz slices while the tail of the row-Reduce
// is still arriving; a blocking write_object loop would serialize the two
// stages. AsyncWriter runs a single background writer thread fed through a
// bounded CircularBuffer, so enqueue() returns as soon as the payload is
// queued and the producer (the reduce fold) keeps running.
//
// Writes are multiplexed over *streams* so the streaming-4DCT mode can pipe
// every volume's slices through one writer thread: each volume opens its own
// stream, and a write error poisons only that stream — its remaining items
// are dropped, its finish_stream() rethrows, and every other stream keeps
// writing (volume v+1 must not be corrupted by volume v's failure). Write
// order is FIFO across streams.
//
// A stream may opt into the COMPRESSED store mode (paper §8 future work):
// its payloads are quantized + RLE-compressed (the lossy postproc codec) on
// the writer thread and stored as self-contained serialized
// CompressedVolume objects, with the raw/stored byte counts and the
// quantization error accumulated per stream so the caller can report the
// store ratio and PSNR per volume. Compression rides the writer thread, so
// it overlaps the producer exactly like the writes themselves do.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/circular_buffer.h"
#include "pfs/pfs.h"

namespace ifdk::pfs {

/// Opt-in compressed store mode of one AsyncWriter stream.
struct StreamCompression {
  /// Quantization depth of the lossy store codec, 8..16 bits per value.
  int bits = 12;
};

/// Byte and error accounting of one stream, accumulated write by write.
struct StreamStats {
  /// Bytes the producer enqueued (4 * floats).
  std::size_t raw_bytes = 0;
  /// Bytes that hit the store (serialized compressed objects, headers
  /// included; equals raw_bytes for uncompressed streams).
  std::size_t stored_bytes = 0;
  /// Sum of squared quantization errors across every stored value.
  double sum_squared_error = 0;
  /// Largest |value| seen (the PSNR peak).
  double peak = 0;
  /// Number of values stored (the PSNR denominator).
  std::size_t values = 0;

  /// raw_bytes / stored_bytes (1 when nothing was stored yet).
  double ratio() const {
    return stored_bytes == 0 ? 1.0
                             : static_cast<double>(raw_bytes) /
                                   static_cast<double>(stored_bytes);
  }
  /// Peak signal-to-noise ratio of the stored stream in dB; +inf for a
  /// lossless (uncompressed) or empty stream, NaN when the peak is zero.
  double psnr_db() const;
  /// Folds another stream's accounting into this one: sums the bytes, the
  /// squared error and the values, and keeps the larger peak. Merging the
  /// streams of every row root that stored part of a volume gives that
  /// volume's store accounting.
  void merge(const StreamStats& other);
};

/// Background writer over a ParallelFileSystem. Single producer / single
/// writer thread; enqueue() applies back-pressure when `queue_capacity`
/// payloads are in flight. finish() must be called before destruction to
/// observe errors; the destructor drains silently if it was not.
class AsyncWriter {
 public:
  /// Identifies one independent write stream (one 4D-CT volume), as
  /// returned by open_stream().
  using StreamId = std::size_t;

  /// Starts the writer thread. `fs` must outlive this object.
  explicit AsyncWriter(ParallelFileSystem& fs, std::size_t queue_capacity = 8);

  AsyncWriter(const AsyncWriter&) = delete;
  AsyncWriter& operator=(const AsyncWriter&) = delete;

  /// Joins the writer thread, draining queued writes. Errors that finish()
  /// did not already surface are swallowed (destructors must not throw);
  /// call finish() to observe them.
  ~AsyncWriter();

  /// Registers a new independent stream and returns its id. Must not be
  /// called after finish(). With `compression` set the stream stores
  /// serialized CompressedVolume objects instead of raw floats (the payload
  /// is compressed on the writer thread); read them back with
  /// read_compressed_object().
  StreamId open_stream(std::optional<StreamCompression> compression = {});

  /// This stream's byte/error accounting so far. Call after finish_stream()
  /// (or finish()) for totals that include every write; values observed
  /// mid-stream are a consistent snapshot.
  StreamStats stream_stats(StreamId stream) const;

  /// Queues one object write on `stream` (payload is taken by value so the
  /// caller's buffer is free immediately). Blocks while the queue is full —
  /// the back-pressure that keeps the store stage from buffering an
  /// unbounded volume. Returns false without queueing when the stream has
  /// already failed (the error surfaces from finish_stream()); the caller
  /// should stop feeding that stream. Throws Error if called after finish().
  bool enqueue(StreamId stream, std::string name, std::vector<float> payload);

  /// Waits until every write queued on `stream` has hit the store (or been
  /// dropped by a poisoned stream), then rethrows the stream's first error
  /// if one occurred (once; a second call returns cleanly). Other streams
  /// are unaffected. May be called while other streams keep enqueueing.
  void finish_stream(StreamId stream);

  /// Closes the queue, waits for every queued write to hit the store, and
  /// rethrows the first error that no finish_stream() call has claimed yet
  /// (if any). Idempotent.
  void finish();

  /// Wall-clock seconds the writer thread spent inside write_object — the
  /// "busy" numerator of the store stage's overlap efficiency.
  double busy_seconds() const;

 private:
  struct Item {
    StreamId stream;
    std::string name;
    std::vector<float> payload;
  };

  /// Per-stream book-keeping, guarded by mutex_.
  struct StreamState {
    std::size_t pending = 0;       ///< enqueued, not yet written/dropped
    std::exception_ptr error;      ///< first write failure on this stream
    bool error_claimed = false;    ///< a finish rethrew it already
    std::optional<StreamCompression> compression;  ///< store codec, if any
    StreamStats stats;             ///< byte/error accounting
  };

  void run();

  ParallelFileSystem& fs_;
  CircularBuffer<Item> queue_;
  mutable std::mutex mutex_;
  std::condition_variable drained_;  ///< signalled whenever pending drops
  std::vector<StreamState> streams_;
  std::thread worker_;
  bool finished_ = false;
  std::atomic<double> busy_seconds_{0.0};
};

/// Reads one serialized CompressedVolume object (as written by a compressed
/// AsyncWriter stream) and returns its decompressed values. Corrupt objects
/// throw CompressionError.
std::vector<float> read_compressed_object(const ParallelFileSystem& fs,
                                          const std::string& name);

}  // namespace ifdk::pfs
