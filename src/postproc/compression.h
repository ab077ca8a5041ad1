// Volume compression (paper Section 8, future work: "we intend to
// investigate compression ... of the high-resolution volumes").
//
// High-resolution CT volumes are huge (256 GB at 4K, 2 TB at 8K) but highly
// compressible: most voxels are air, and tissue/material plateaus are long
// runs after quantization. Two codecs live here:
//
//   * The LOSSY store codec:
//       float32  --(linear quantization, configurable bits)-->  uint16
//                --(run-length encoding of equal words)------->  byte stream
//     a lossy-then-lossless stage pair whose error is bounded by half a
//     quantization step. Compression ratio and PSNR are first-class outputs
//     so the store-stage savings can be fed back into the performance model
//     (a compressed 8K store at ratio r cuts Tstore by r).
//
//   * The LOSSLESS frame codec (FWF1; encode_frame / decode_frame):
//     byte-plane shuffle + per-plane RLE with a guaranteed raw-frame
//     fallback, so the encoded payload is never larger than the raw floats
//     (ratio >= 1 by construction). Frames are self-describing — a fixed
//     header carries the mode, word count, payload length, and an FNV-1a
//     checksum — so frames can be concatenated back-to-back and parsed
//     without out-of-band length information. Round trips are bitwise
//     exact, NaN/Inf payloads included (the codec never interprets the bits
//     as floats).
//
// Corrupt input of either codec throws ifdk::CompressionError naming the
// offending byte offset; decoders validate before touching payload bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/volume.h"

namespace ifdk::postproc {

struct CompressedVolume {
  std::size_t nx = 0, ny = 0, nz = 0;
  VolumeLayout layout = VolumeLayout::kXMajor;
  float min_value = 0;   ///< quantization range
  float max_value = 0;
  int bits = 16;         ///< quantization depth (<= 16)
  std::vector<std::uint8_t> payload;  ///< RLE stream

  /// Size of the RLE payload in bytes.
  std::size_t compressed_bytes() const { return payload.size(); }
  /// Size of the raw float volume the header claims: nx*ny*nz*4. The
  /// product is NOT overflow-checked here — decompress() and
  /// deserialize_volume() validate untrusted headers before using it.
  std::size_t original_bytes() const { return nx * ny * nz * sizeof(float); }
  /// original_bytes / compressed_bytes (0 for an empty payload).
  double ratio() const {
    return payload.empty()
               ? 0.0
               : static_cast<double>(original_bytes()) /
                     static_cast<double>(compressed_bytes());
  }
};

/// Compresses a volume with `bits`-deep quantization (8..16).
CompressedVolume compress(const Volume& volume, int bits = 16);

/// Reconstructs the volume; values differ from the original by at most half
/// a quantization step of the stored range. The header is treated as
/// untrusted: the nx*ny*nz product is checked against overflow and the RLE
/// stream's decoded word count must equal it exactly (both validated BEFORE
/// the volume is allocated); violations throw CompressionError naming the
/// offending offset.
Volume decompress(const CompressedVolume& compressed);

/// Peak signal-to-noise ratio between two volumes in dB (peak = max |a|).
double psnr_db(const Volume& a, const Volume& b);

// -- lossless wire frames ----------------------------------------------------

/// Bytes of the self-describing frame header: magic u32, mode u8 (0 = raw,
/// 1 = byte-plane shuffle + RLE), 3 reserved bytes, word count u32, payload
/// length u32, FNV-1a payload checksum u32. All fields little-endian.
inline constexpr std::size_t kFrameHeaderBytes = 20;

/// Losslessly encodes `count` floats into one self-describing frame.
/// The payload is the smaller of {byte-plane shuffle + RLE, raw bytes}, so
/// frame.size() <= kFrameHeaderBytes + 4*count always (ratio >= 1 by
/// construction, up to the constant header). Bitwise exact round trip for
/// every bit pattern, NaN/Inf included; count == 0 yields a header-only
/// frame. `count` must fit the header's u32 word-count field.
std::vector<std::uint8_t> encode_frame(const float* data, std::size_t count);

/// Decodes one frame starting at `data` and writes exactly `expected_count`
/// floats to `out`; returns the number of frame bytes consumed (header +
/// payload), so concatenated frames can be parsed sequentially. Validates
/// magic, mode, word count (must equal `expected_count`), payload length
/// (against `bytes_available` — a length-lying header cannot cause an
/// out-of-bounds read), and the checksum, in that order, before decoding;
/// any violation throws CompressionError naming the offending byte offset
/// relative to the frame start.
std::size_t decode_frame(const std::uint8_t* data, std::size_t bytes_available,
                         float* out, std::size_t expected_count);

// -- serialized store objects ------------------------------------------------

/// Serializes a CompressedVolume into one self-contained byte object (the
/// compressed PFS store format): a fixed header (magic, dims, layout,
/// quantization range/depth, payload length, FNV-1a payload checksum)
/// followed by the RLE payload.
std::vector<std::uint8_t> serialize_volume(const CompressedVolume& volume);

/// Parses a serialized CompressedVolume. The input is untrusted: magic,
/// header completeness, payload length vs `bytes`, and the checksum are all
/// validated (CompressionError naming the byte offset on violation). The
/// returned header still carries untrusted dimensions — decompress()
/// re-validates them against the decoded word count.
CompressedVolume deserialize_volume(const std::uint8_t* data,
                                    std::size_t bytes);

}  // namespace ifdk::postproc
