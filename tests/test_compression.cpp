// Compression corruption-injection + property suite (ctest label
// `compression`, also in the ASan/UBSan lane): the lossless frame codec must
// round-trip every bit pattern exactly and never exceed the raw-fallback
// size, and BOTH decoders (wire frames and serialized CompressedVolume
// store objects) must reject truncated, bit-flipped, and length-lying
// payloads with a typed CompressionError naming the offending offset —
// never UB. Randomized cases are seeded and print their seed on failure,
// like test_collective_stress. The root-cause test pins the 3-class error
// protocol: a decode failure wins over queue-shutdown and world-abort
// symptoms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "minimpi/minimpi.h"
#include "postproc/compression.h"

namespace ifdk::postproc {
namespace {

std::string hex_seed(std::uint64_t seed) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seed 0x%llx",
                static_cast<unsigned long long>(seed));
  return buf;
}

/// Bitwise comparison: NaNs with equal bit patterns compare equal, so the
/// codec's "never interprets the bits as floats" promise is testable.
void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint32_t ba = 0, bb = 0;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    ASSERT_EQ(ba, bb) << "word " << i;
  }
}

std::vector<float> round_trip(const std::vector<float>& data) {
  const std::vector<std::uint8_t> frame = encode_frame(data.data(),
                                                       data.size());
  // Ratio >= 1 by construction: the payload is never larger than raw.
  EXPECT_LE(frame.size(), kFrameHeaderBytes + data.size() * sizeof(float));
  std::vector<float> out(data.size());
  const std::size_t consumed =
      decode_frame(frame.data(), frame.size(), out.data(), data.size());
  EXPECT_EQ(consumed, frame.size());
  return out;
}

// ---- lossless codec property tests -----------------------------------------

TEST(WireFrameProperties, RandomBuffersRoundTripBitwise) {
  for (const std::uint64_t seed :
       {std::uint64_t{0x1}, std::uint64_t{0xc0de}, std::uint64_t{0x51ab},
        std::uint64_t{0x9e3779b9}, std::uint64_t{0xfeedface}}) {
    SCOPED_TRACE(hex_seed(seed));
    Rng rng(seed);
    for (int round = 0; round < 8; ++round) {
      const std::size_t count = 1 + rng.next_below(4095);
      std::vector<float> data(count);
      // Mix plateaus (compressible) with full-range noise (incompressible)
      // so both encoder modes are exercised from one distribution.
      float plateau = rng.next_float(-10.0f, 10.0f);
      for (std::size_t i = 0; i < count; ++i) {
        if (rng.next_below(16) == 0) plateau = rng.next_float(-10.0f, 10.0f);
        data[i] = rng.next_below(4) == 0
                      ? rng.next_float(-1e30f, 1e30f)
                      : plateau;
      }
      expect_bitwise_equal(data, round_trip(data));
    }
  }
}

TEST(WireFrameProperties, AdversarialExtremesRoundTripBitwise) {
  // All-equal: the best case — must land far below raw.
  std::vector<float> equal(10000, 7.25f);
  expect_bitwise_equal(equal, round_trip(equal));
  EXPECT_LT(encode_frame(equal.data(), equal.size()).size(),
            equal.size() * sizeof(float) / 8);

  // All-distinct noise: the worst case — raw fallback, still exact.
  Rng rng(0xd15717c7);
  std::vector<float> noise(4096);
  for (float& v : noise) v = rng.next_float(-1e3f, 1e3f);
  expect_bitwise_equal(noise, round_trip(noise));

  // NaN/Inf-laced: the codec never interprets payload bits as floats, so
  // every non-finite pattern survives bit-exactly.
  std::vector<float> weird = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::signaling_NaN(),
                              -0.0f,
                              std::numeric_limits<float>::denorm_min()};
  for (int i = 0; i < 500; ++i) weird.push_back(weird[i % 6]);
  expect_bitwise_equal(weird, round_trip(weird));

  // Zero-length: a header-only frame that decodes to zero words.
  const std::vector<std::uint8_t> empty = encode_frame(nullptr, 0);
  EXPECT_EQ(empty.size(), kFrameHeaderBytes);
  float sentinel = 42.0f;
  EXPECT_EQ(decode_frame(empty.data(), empty.size(), &sentinel, 0),
            kFrameHeaderBytes);
  EXPECT_EQ(sentinel, 42.0f);
}

TEST(WireFrameProperties, ConcatenatedFramesParseSequentially) {
  // The relay contract: back-to-back frames are parseable with no
  // out-of-band length info, exactly how tree-ireduce blocks are decoded.
  Rng rng(0xcafe);
  std::vector<std::vector<float>> segments;
  std::vector<std::uint8_t> block;
  for (int s = 0; s < 5; ++s) {
    std::vector<float> seg(128);
    for (float& v : seg) {
      v = rng.next_below(2) == 0 ? 1.5f : rng.next_float(-2.0f, 2.0f);
    }
    const std::vector<std::uint8_t> frame = encode_frame(seg.data(),
                                                         seg.size());
    block.insert(block.end(), frame.begin(), frame.end());
    segments.push_back(std::move(seg));
  }
  std::size_t off = 0;
  for (const std::vector<float>& seg : segments) {
    std::vector<float> out(seg.size());
    off += decode_frame(block.data() + off, block.size() - off, out.data(),
                        seg.size());
    expect_bitwise_equal(seg, out);
  }
  EXPECT_EQ(off, block.size());
}

// ---- wire-frame corruption injection ---------------------------------------

/// A compressible frame (RLE mode) for corruption sweeps.
std::vector<std::uint8_t> rle_frame(std::vector<float>* data_out = nullptr) {
  std::vector<float> data(512, 3.0f);
  for (std::size_t i = 0; i < data.size(); i += 17) {
    data[i] = static_cast<float>(i);
  }
  if (data_out != nullptr) *data_out = data;
  std::vector<std::uint8_t> frame = encode_frame(data.data(), data.size());
  EXPECT_EQ(frame[4], 1) << "test frame must resolve to RLE mode";
  return frame;
}

TEST(WireFrameCorruption, TruncationAtEveryLengthThrowsTyped) {
  const std::vector<std::uint8_t> frame = rle_frame();
  std::vector<float> out(512);
  for (std::size_t bytes = 0; bytes < frame.size(); ++bytes) {
    EXPECT_THROW(decode_frame(frame.data(), bytes, out.data(), 512),
                 CompressionError)
        << "truncated to " << bytes << " bytes";
  }
}

TEST(WireFrameCorruption, EveryBitFlipThrowsTyped) {
  // Flip every bit of the frame in turn: header flips break the magic,
  // mode, count, length, reserved, or checksum fields; payload flips break
  // the checksum. Any silent success would mean a corrupt reduce
  // contribution folds into the result.
  const std::vector<std::uint8_t> frame = rle_frame();
  std::vector<float> out(512);
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bad = frame;
      bad[byte] = static_cast<std::uint8_t>(bad[byte] ^ (1u << bit));
      EXPECT_THROW(decode_frame(bad.data(), bad.size(), out.data(), 512),
                   CompressionError)
          << "bit " << bit << " of byte " << byte;
    }
  }
}

TEST(WireFrameCorruption, ErrorsNameTheOffendingOffset) {
  const std::vector<std::uint8_t> frame = rle_frame();
  std::vector<float> out(512);

  const auto message_of = [&](const std::vector<std::uint8_t>& bad,
                              std::size_t bytes) -> std::string {
    try {
      decode_frame(bad.data(), bytes, out.data(), 512);
    } catch (const CompressionError& e) {
      return e.what();
    }
    return "";
  };

  // Truncated header: offset = the bytes that were present.
  EXPECT_NE(message_of(frame, 7).find("at offset 7"), std::string::npos);
  // Bad magic: offset 0.
  std::vector<std::uint8_t> bad_magic = frame;
  bad_magic[0] ^= 0xff;
  EXPECT_NE(message_of(bad_magic, frame.size()).find("at offset 0"),
            std::string::npos);
  // Lying word count: offset 8.
  std::vector<std::uint8_t> bad_count = frame;
  bad_count[8] ^= 0x01;
  EXPECT_NE(message_of(bad_count, frame.size()).find("at offset 8"),
            std::string::npos);
  // Corrupt payload byte: the checksum catches it, named at offset 16.
  std::vector<std::uint8_t> bad_payload = frame;
  bad_payload[kFrameHeaderBytes + 5] ^= 0x10;
  EXPECT_NE(message_of(bad_payload, frame.size())
                .find("checksum mismatch at offset 16"),
            std::string::npos);
}

TEST(WireFrameCorruption, LengthLyingHeadersCannotReadOutOfBounds) {
  // A header claiming more payload than the buffer holds must be rejected
  // against bytes_available BEFORE any payload access (ASan would flag an
  // overread here if validation were reordered).
  std::vector<float> data;
  std::vector<std::uint8_t> frame = rle_frame(&data);
  const std::size_t payload = frame.size() - kFrameHeaderBytes;
  std::vector<float> out(512);

  // Inflate the payload-length field past the buffer end.
  std::vector<std::uint8_t> inflate = frame;
  const std::uint32_t lie = static_cast<std::uint32_t>(payload + 1000);
  std::memcpy(inflate.data() + 12, &lie, sizeof(lie));
  EXPECT_THROW(decode_frame(inflate.data(), inflate.size(), out.data(), 512),
               CompressionError);

  // Deflate it: the truncated payload no longer matches the checksum (and a
  // plane prefix would overrun it first).
  std::vector<std::uint8_t> deflate = frame;
  const std::uint32_t small = static_cast<std::uint32_t>(payload / 2);
  std::memcpy(deflate.data() + 12, &small, sizeof(small));
  EXPECT_THROW(decode_frame(deflate.data(), deflate.size(), out.data(), 512),
               CompressionError);

  // A raw-mode frame whose length disagrees with 4 * count.
  std::vector<float> noise(64);
  Rng rng(0xbadf00d);
  for (float& v : noise) v = rng.next_float(-1e6f, 1e6f);
  std::vector<std::uint8_t> raw = encode_frame(noise.data(), noise.size());
  ASSERT_EQ(raw[4], 0) << "noise must resolve to raw mode";
  const std::uint32_t short_raw = 64 * sizeof(float) - 4;
  std::memcpy(raw.data() + 12, &short_raw, sizeof(short_raw));
  std::vector<float> raw_out(64);
  EXPECT_THROW(decode_frame(raw.data(), raw.size(), raw_out.data(), 64),
               CompressionError);
}

TEST(WireFrameCorruption, PlaneRecordsDecodingPastWordCountThrow) {
  // Hand-build a mode-1 frame whose plane RLE decodes more words than the
  // header's count: bounds-checked decode must throw, not scribble. The
  // payload (28 bytes) stays under 4*count so the RLE-smaller-than-raw
  // header check passes and the defensive plane parsing is what trips.
  const std::size_t count = 100;
  std::vector<std::uint8_t> payload;
  for (std::size_t plane = 0; plane < 4; ++plane) {
    // length prefix: one 3-byte record
    payload.push_back(3);
    payload.push_back(0);
    payload.push_back(0);
    payload.push_back(0);
    payload.push_back(200);  // run of 200 > count = 100
    payload.push_back(0);
    payload.push_back(0x42);
  }
  std::vector<std::uint8_t> frame;
  const std::uint32_t magic = 0x31465746u;
  frame.resize(20);
  std::memcpy(frame.data(), &magic, 4);
  frame[4] = 1;
  const std::uint32_t count32 = count;
  std::memcpy(frame.data() + 8, &count32, 4);
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(frame.data() + 12, &len, 4);
  // Valid checksum so the defensive plane parsing is what trips.
  std::uint32_t hash = 2166136261u;
  for (std::uint8_t b : payload) {
    hash ^= b;
    hash *= 16777619u;
  }
  std::memcpy(frame.data() + 16, &hash, 4);
  frame.insert(frame.end(), payload.begin(), payload.end());

  std::vector<float> out(count);
  try {
    decode_frame(frame.data(), frame.size(), out.data(), count);
    FAIL() << "expected CompressionError";
  } catch (const CompressionError& e) {
    EXPECT_NE(std::string(e.what()).find("decodes past word count"),
              std::string::npos)
        << e.what();
  }
}

// ---- store-object corruption + header validation ---------------------------

Volume store_volume() {
  Volume vol(6, 5, 4, VolumeLayout::kXMajor, /*zero_fill=*/false);
  for (std::size_t i = 0; i < vol.voxels(); ++i) {
    vol.data()[i] = static_cast<float>(i % 9) * 0.125f;
  }
  return vol;
}

TEST(StoreObjectCorruption, SerializedRoundTripIsExact) {
  const CompressedVolume cv = compress(store_volume(), 12);
  const std::vector<std::uint8_t> blob = serialize_volume(cv);
  const CompressedVolume back = deserialize_volume(blob.data(), blob.size());
  EXPECT_EQ(back.nx, cv.nx);
  EXPECT_EQ(back.ny, cv.ny);
  EXPECT_EQ(back.nz, cv.nz);
  EXPECT_EQ(back.layout, cv.layout);
  EXPECT_EQ(back.bits, cv.bits);
  EXPECT_EQ(back.min_value, cv.min_value);
  EXPECT_EQ(back.max_value, cv.max_value);
  EXPECT_EQ(back.payload, cv.payload);
}

TEST(StoreObjectCorruption, TruncationAndBitFlipsThrowTyped) {
  const std::vector<std::uint8_t> blob =
      serialize_volume(compress(store_volume(), 12));
  for (std::size_t bytes = 0; bytes < blob.size(); ++bytes) {
    EXPECT_THROW(deserialize_volume(blob.data(), bytes), CompressionError)
        << "truncated to " << bytes << " bytes";
  }
  for (std::size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bad = blob;
      bad[byte] = static_cast<std::uint8_t>(bad[byte] ^ (1u << bit));
      // deserialize_volume validates magic, layout/bits ranges, reserved
      // bytes, payload length, and the payload checksum; the dimension and
      // quantization-range fields are carried through untrusted and it is
      // decompress() that cross-checks dims against the decoded word
      // count. So every flip must resolve to a typed CompressionError from
      // ONE of the two stages — except flips confined to the
      // layout/bits/min/max fields that happen to stay in-range, which
      // legally describe a different (still decodable) volume. Nothing may
      // escape as UB or a non-typed exception (the ASan lane enforces the
      // first half of that claim).
      const bool reinterpretable_field =
          byte == 16 || byte == 17 || (byte >= 20 && byte < 28);
      const bool dim_field = byte >= 4 && byte < 16;
      try {
        const CompressedVolume back = deserialize_volume(bad.data(),
                                                         bad.size());
        ASSERT_TRUE(dim_field || reinterpretable_field)
            << "bit " << bit << " of byte " << byte << " parsed silently";
        try {
          const Volume out = decompress(back);
          // Only an in-range layout/bits/min/max reinterpretation may
          // decode; a flipped dimension always changes nx*ny*nz away from
          // the RLE stream's word count.
          ASSERT_TRUE(reinterpretable_field)
              << "bit " << bit << " of byte " << byte
              << " decompressed silently";
          EXPECT_EQ(out.voxels(), store_volume().voxels());
        } catch (const CompressionError&) {
          // typed rejection at the decompress stage
        }
      } catch (const CompressionError&) {
        // typed rejection at the parse stage
      }
    }
  }
}

TEST(StoreObjectCorruption, HeaderVoxelCountMustMatchDecodedWords) {
  // The satellite fix: a header whose nx*ny*nz disagrees with the RLE
  // stream's decoded word count must be rejected — in BOTH directions.
  CompressedVolume cv = compress(store_volume(), 12);
  CompressedVolume bigger = cv;
  bigger.nz = cv.nz + 1;
  try {
    decompress(bigger);
    FAIL() << "expected CompressionError";
  } catch (const CompressionError& e) {
    EXPECT_NE(std::string(e.what()).find("header claims"), std::string::npos)
        << e.what();
  }
  CompressedVolume smaller = cv;
  smaller.nz = cv.nz - 1;
  EXPECT_THROW(decompress(smaller), CompressionError);

  CompressedVolume empty = cv;
  empty.nx = 0;
  EXPECT_THROW(decompress(empty), CompressionError);
}

TEST(StoreObjectCorruption, HeaderProductOverflowIsGuarded) {
  // nx*ny*nz (and *sizeof(float)) must be overflow-checked BEFORE any
  // allocation: a lying header cannot wrap the size computation into a
  // small allocation that the RLE decode then overruns.
  CompressedVolume lying = compress(store_volume(), 12);
  lying.nx = std::numeric_limits<std::size_t>::max() / 2;
  lying.ny = 3;
  lying.nz = 3;
  try {
    decompress(lying);
    FAIL() << "expected CompressionError";
  } catch (const CompressionError& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos)
        << e.what();
  }

  // The nx*ny*nz*sizeof(float) product can overflow even when the voxel
  // count itself does not.
  CompressedVolume byte_lying = compress(store_volume(), 12);
  byte_lying.nx = std::numeric_limits<std::size_t>::max() / 2;
  byte_lying.ny = 1;
  byte_lying.nz = 1;
  try {
    decompress(byte_lying);
    FAIL() << "expected CompressionError";
  } catch (const CompressionError& e) {
    EXPECT_NE(std::string(e.what()).find("sizeof(float)"), std::string::npos)
        << e.what();
  }

  CompressedVolume bad_bits = compress(store_volume(), 12);
  bad_bits.bits = 99;  // out-of-range depth is rejected up front too
  EXPECT_THROW(decompress(bad_bits), CompressionError);
}

// ---- root-cause selection --------------------------------------------------

TEST(IreduceCorruption, PickRootCausePrefersDecodeFailure) {
  // The 3-class protocol in isolation: a CompressionError (class 0, a real
  // failure) must win over both symptom classes regardless of slot order.
  const auto as_ptr = [](auto&& e) {
    return std::make_exception_ptr(std::forward<decltype(e)>(e));
  };
  const std::exception_ptr decode =
      as_ptr(CompressionError("wire frame: payload checksum mismatch"));
  const std::exception_ptr abort_symptom =
      as_ptr(mpi::WorldAbortedError("fetch on aborted world"));
  const std::exception_ptr queue_symptom =
      as_ptr(engine::QueueClosedError("queue closed"));

  for (const auto& slots :
       {std::vector<std::exception_ptr>{queue_symptom, abort_symptom, decode},
        std::vector<std::exception_ptr>{decode, abort_symptom, queue_symptom},
        std::vector<std::exception_ptr>{abort_symptom, decode, nullptr}}) {
    const std::exception_ptr winner = engine::pick_root_cause(slots);
    ASSERT_TRUE(winner);
    EXPECT_THROW(std::rethrow_exception(winner), CompressionError);
  }
}

}  // namespace
}  // namespace ifdk::postproc
