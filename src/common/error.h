// Error handling primitives for the iFDK library.
//
// The library follows the C++ Core Guidelines (E.2/E.3): errors that the
// caller cannot reasonably recover from locally are reported by throwing an
// exception derived from ifdk::Error; programming errors (broken invariants)
// abort via IFDK_ASSERT in all build types, because a reconstruction that
// silently continues past a broken invariant produces garbage volumes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace ifdk {

/// Base class for all exceptions thrown by the iFDK library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a user-supplied configuration is inconsistent
/// (e.g. a rank grid that does not divide the projection count).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// Thrown when a simulated device runs out of memory; the framework's
/// R-selection logic (Section 4.1.5 of the paper) relies on catching this.
class DeviceOutOfMemory : public Error {
 public:
  explicit DeviceOutOfMemory(const std::string& what) : Error(what) {}
};

/// Thrown on I/O failures against the real filesystem or the PFS model.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// Thrown when a compressed payload (an RLE stream or a serialized
/// CompressedVolume) is truncated, bit-flipped, or lies about its own
/// length. Messages name the offending byte offset so a corrupt object is
/// attributable; decoders validate *before* touching payload bytes, so a
/// corrupt stream can never become UB (the suites run under ASan/UBSan).
class CompressionError : public Error {
 public:
  explicit CompressionError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const char* msg) {
  std::fprintf(stderr, "ifdk assertion failed: %s\n  at %s:%d\n  %s\n", expr,
               file, line, msg ? msg : "");
  std::abort();
}
}  // namespace detail

}  // namespace ifdk

/// Invariant check that is active in every build type.
#define IFDK_ASSERT(expr)                                              \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::ifdk::detail::assert_fail(#expr, __FILE__, __LINE__, nullptr); \
    }                                                                  \
  } while (0)

#define IFDK_ASSERT_MSG(expr, msg)                                  \
  do {                                                              \
    if (!(expr)) {                                                  \
      ::ifdk::detail::assert_fail(#expr, __FILE__, __LINE__, msg);  \
    }                                                               \
  } while (0)

/// Recoverable-error check: throws ifdk::ConfigError with the given message.
#define IFDK_REQUIRE(expr, msg)                  \
  do {                                           \
    if (!(expr)) {                               \
      throw ::ifdk::ConfigError(msg);            \
    }                                            \
  } while (0)
