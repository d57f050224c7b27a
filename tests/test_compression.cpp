// Compression corruption-injection suite (ctest label `compression`, also
// in the ASan/UBSan lane): serialized CompressedVolume store objects must
// round-trip exactly, and the store decoders must reject truncated,
// bit-flipped, length-lying and overflowing payloads with a typed
// CompressionError naming the offending offset — never UB. The root-cause
// test pins the 3-class error protocol: a decode failure wins over
// queue-shutdown and world-abort symptoms.
#include <gtest/gtest.h>

#include <exception>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "engine/engine.h"
#include "minimpi/minimpi.h"
#include "postproc/compression.h"

namespace ifdk::postproc {
namespace {

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

// ---- root-cause selection ------------------------------------------------

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
