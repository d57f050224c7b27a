#include "postproc/compression.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/error.h"

namespace ifdk::postproc {

namespace {

/// RLE word stream: records of (run_length u16, value u16), both
/// little-endian. Runs are capped at 65535 and split when longer.
void append_run(std::vector<std::uint8_t>& out, std::uint16_t value,
                std::size_t length) {
  while (length > 0) {
    const std::uint16_t run =
        static_cast<std::uint16_t>(std::min<std::size_t>(length, 65535));
    out.push_back(static_cast<std::uint8_t>(run & 0xff));
    out.push_back(static_cast<std::uint8_t>(run >> 8));
    out.push_back(static_cast<std::uint8_t>(value & 0xff));
    out.push_back(static_cast<std::uint8_t>(value >> 8));
    length -= run;
  }
}

[[noreturn]] void fail(const std::string& what, std::size_t offset) {
  throw CompressionError(what + " at offset " + std::to_string(offset));
}

std::uint32_t fnv1a(const std::uint8_t* data, std::size_t bytes) {
  std::uint32_t hash = 2166136261u;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= data[i];
    hash *= 16777619u;
  }
  return hash;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// "CVS1" little-endian: compressed volume store object, version 1.
constexpr std::uint32_t kVolumeMagic = 0x31535643u;
/// Serialized CompressedVolume header: magic u32, nx/ny/nz u32, layout u8,
/// bits u8, 2 reserved bytes, min/max f32 bit patterns, payload length u32,
/// FNV-1a payload checksum u32.
constexpr std::size_t kVolumeHeaderBytes = 36;

/// Overflow-checked product; the failure message names the header field so
/// a lying store object is attributable.
std::size_t checked_mul(std::size_t a, std::size_t b, const char* what) {
  if (b != 0 && a > std::numeric_limits<std::size_t>::max() / b) {
    throw CompressionError(std::string("compressed volume header overflow: ") +
                           what);
  }
  return a * b;
}

}  // namespace

CompressedVolume compress(const Volume& volume, int bits) {
  IFDK_REQUIRE(bits >= 8 && bits <= 16, "quantization depth must be 8..16");
  CompressedVolume out;
  out.nx = volume.nx();
  out.ny = volume.ny();
  out.nz = volume.nz();
  out.layout = volume.layout();
  out.bits = bits;

  const float* data = volume.data();
  const std::size_t n = volume.voxels();
  IFDK_REQUIRE(n > 0, "cannot compress an empty volume");

  float lo = data[0], hi = data[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, data[i]);
    hi = std::max(hi, data[i]);
  }
  out.min_value = lo;
  out.max_value = hi;
  const float range = hi - lo;
  const auto levels =
      static_cast<std::uint32_t>((1u << bits) - 1);
  const float scale = range > 0 ? static_cast<float>(levels) / range : 0.0f;

  // Quantize + RLE in one pass.
  out.payload.reserve(n / 8);  // heuristic
  std::uint16_t current = 0;
  std::size_t run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto q = static_cast<std::uint16_t>(
        std::lround((data[i] - lo) * scale));
    if (run > 0 && q == current) {
      ++run;
    } else {
      if (run > 0) append_run(out.payload, current, run);
      current = q;
      run = 1;
    }
  }
  if (run > 0) append_run(out.payload, current, run);
  return out;
}

Volume decompress(const CompressedVolume& compressed) {
  // The header is untrusted (it may come off the PFS via deserialize_volume):
  // validate everything BEFORE allocating nx*ny*nz floats, so a lying header
  // can neither overflow the size computation nor trigger a huge allocation
  // backed by a tiny payload.
  if (compressed.bits < 1 || compressed.bits > 16) {
    throw CompressionError("compressed volume header: quantization depth " +
                           std::to_string(compressed.bits) +
                           " outside 1..16");
  }
  const std::size_t n = checked_mul(
      checked_mul(compressed.nx, compressed.ny, "nx*ny"), compressed.nz,
      "nx*ny*nz");
  checked_mul(n, sizeof(float), "nx*ny*nz*sizeof(float)");
  if (n == 0) {
    throw CompressionError("compressed volume header: empty volume (nx=" +
                           std::to_string(compressed.nx) +
                           " ny=" + std::to_string(compressed.ny) +
                           " nz=" + std::to_string(compressed.nz) + ")");
  }

  const auto& p = compressed.payload;
  if (p.size() % 4 != 0) {
    fail("corrupt RLE stream: truncated record", p.size() - p.size() % 4);
  }
  std::size_t total = 0;
  for (std::size_t off = 0; off < p.size(); off += 4) {
    const std::size_t run = static_cast<std::size_t>(p[off]) |
                            (static_cast<std::size_t>(p[off + 1]) << 8);
    if (total + run > n) {
      fail("corrupt RLE stream: decoded words exceed header voxel count " +
               std::to_string(n),
           off);
    }
    total += run;
  }
  if (total != n) {
    throw CompressionError(
        "corrupt RLE stream: decodes " + std::to_string(total) +
        " words but header claims " + std::to_string(n) + " voxels");
  }

  Volume volume(compressed.nx, compressed.ny, compressed.nz,
                compressed.layout, /*zero_fill=*/false);
  const auto levels = static_cast<std::uint32_t>(
      (1u << static_cast<unsigned>(compressed.bits)) - 1);
  const float range = compressed.max_value - compressed.min_value;
  const float scale = levels > 0 ? range / static_cast<float>(levels) : 0.0f;

  float* data = volume.data();
  std::size_t written = 0;
  for (std::size_t off = 0; off < p.size(); off += 4) {
    const std::size_t run = static_cast<std::size_t>(p[off]) |
                            (static_cast<std::size_t>(p[off + 1]) << 8);
    const std::uint16_t q = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(p[off + 2]) |
        (static_cast<std::uint16_t>(p[off + 3]) << 8));
    const float value = compressed.min_value + scale * static_cast<float>(q);
    std::fill(data + written, data + written + run, value);
    written += run;
  }
  return volume;
}

double psnr_db(const Volume& a, const Volume& b) {
  IFDK_REQUIRE(a.voxels() == b.voxels(), "volume sizes differ");
  double peak = 0, mse = 0;
  for (std::size_t i = 0; i < a.voxels(); ++i) {
    peak = std::max(peak, std::abs(static_cast<double>(a.data()[i])));
    const double d = a.data()[i] - b.data()[i];
    mse += d * d;
  }
  mse /= static_cast<double>(a.voxels());
  if (mse == 0) return std::numeric_limits<double>::infinity();
  IFDK_REQUIRE(peak > 0, "PSNR undefined for an all-zero reference");
  return 10.0 * std::log10(peak * peak / mse);
}

// -- serialized store objects ------------------------------------------------

std::vector<std::uint8_t> serialize_volume(const CompressedVolume& volume) {
  IFDK_REQUIRE(volume.nx <= 0xffffffffu && volume.ny <= 0xffffffffu &&
                   volume.nz <= 0xffffffffu,
               "volume dimensions exceed the u32 store header fields");
  IFDK_REQUIRE(volume.payload.size() <= 0xffffffffu,
               "compressed payload exceeds the u32 store header field");
  std::vector<std::uint8_t> out;
  out.reserve(kVolumeHeaderBytes + volume.payload.size());
  put_u32(out, kVolumeMagic);
  put_u32(out, static_cast<std::uint32_t>(volume.nx));
  put_u32(out, static_cast<std::uint32_t>(volume.ny));
  put_u32(out, static_cast<std::uint32_t>(volume.nz));
  out.push_back(static_cast<std::uint8_t>(volume.layout));
  out.push_back(static_cast<std::uint8_t>(volume.bits));
  out.insert(out.end(), 2, 0);  // reserved
  std::uint32_t min_bits = 0, max_bits = 0;
  std::memcpy(&min_bits, &volume.min_value, sizeof(min_bits));
  std::memcpy(&max_bits, &volume.max_value, sizeof(max_bits));
  put_u32(out, min_bits);
  put_u32(out, max_bits);
  put_u32(out, static_cast<std::uint32_t>(volume.payload.size()));
  put_u32(out, fnv1a(volume.payload.data(), volume.payload.size()));
  out.insert(out.end(), volume.payload.begin(), volume.payload.end());
  return out;
}

CompressedVolume deserialize_volume(const std::uint8_t* data,
                                    std::size_t bytes) {
  if (bytes < kVolumeHeaderBytes) {
    fail("compressed volume: truncated header, " + std::to_string(bytes) +
             " of " + std::to_string(kVolumeHeaderBytes) + " bytes",
         bytes);
  }
  if (get_u32(data) != kVolumeMagic) fail("compressed volume: bad magic", 0);
  CompressedVolume out;
  out.nx = get_u32(data + 4);
  out.ny = get_u32(data + 8);
  out.nz = get_u32(data + 12);
  const std::uint8_t layout = data[16];
  if (layout > static_cast<std::uint8_t>(VolumeLayout::kZMajor)) {
    fail("compressed volume: unknown layout " + std::to_string(layout), 16);
  }
  out.layout = static_cast<VolumeLayout>(layout);
  out.bits = data[17];
  if (out.bits < 1 || out.bits > 16) {
    fail("compressed volume: quantization depth " + std::to_string(out.bits) +
             " outside 1..16",
         17);
  }
  for (std::size_t i = 18; i < 20; ++i) {
    if (data[i] != 0) fail("compressed volume: nonzero reserved byte", i);
  }
  std::uint32_t min_bits = get_u32(data + 20);
  std::uint32_t max_bits = get_u32(data + 24);
  std::memcpy(&out.min_value, &min_bits, sizeof(out.min_value));
  std::memcpy(&out.max_value, &max_bits, sizeof(out.max_value));
  const std::size_t payload_bytes = get_u32(data + 28);
  if (payload_bytes != bytes - kVolumeHeaderBytes) {
    fail("compressed volume: payload length " + std::to_string(payload_bytes) +
             " != " + std::to_string(bytes - kVolumeHeaderBytes) +
             " bytes present",
         28);
  }
  const std::uint8_t* payload = data + kVolumeHeaderBytes;
  if (fnv1a(payload, payload_bytes) != get_u32(data + 32)) {
    fail("compressed volume: payload checksum mismatch", 32);
  }
  out.payload.assign(payload, payload + payload_bytes);
  return out;
}

}  // namespace ifdk::postproc
