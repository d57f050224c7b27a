// Volume compression (paper Section 8, future work: "we intend to
// investigate compression ... of the high-resolution volumes").
//
// High-resolution CT volumes are huge (256 GB at 4K, 2 TB at 8K) but highly
// compressible: most voxels are air, and tissue/material plateaus are long
// runs after quantization. The store codec here is lossy-then-lossless:
//
//   float32  --(linear quantization, configurable bits)-->  uint16
//            --(run-length encoding of equal words)------->  byte stream
//
// Its error is bounded by half a quantization step. Compression ratio and
// PSNR are first-class outputs so the store-stage savings can be fed back
// into the performance model (a compressed 8K store at ratio r cuts Tstore
// by r). serialize_volume / deserialize_volume frame a compressed volume as
// one self-contained, checksummed store object.
//
// Corrupt input throws ifdk::CompressionError naming the offending byte
// offset; decoders validate before touching payload bytes.
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
