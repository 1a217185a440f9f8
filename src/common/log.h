// Tiny leveled stderr logger. Serve mode writes replies to stdout and
// diagnostics to stderr; every stderr line in src/ goes through HDMM_LOG so
// concurrent threads never interleave partial lines (each log call is one
// buffered fprintf) and operators can silence or amplify diagnostics with
// one environment variable:
//
//   HDMM_LOG=error|warn|info|debug   (default: info)
//
// Lines look like `[hdmm warn] strategy cache degraded: ...`. There is no
// timestamping or file rotation — this is a library logger, not a daemon's.
#ifndef HDMM_COMMON_LOG_H_
#define HDMM_COMMON_LOG_H_

#include <atomic>

namespace hdmm {

enum class LogLevel : int {
  kError = 0,
  kWarn = 1,
  kInfo = 2,
  kDebug = 3,
};

class Log {
 public:
  /// True when `level` would be emitted under the threshold, which is read
  /// from HDMM_LOG at process start.
  static bool Enabled(LogLevel level) {
    return static_cast<int>(level) <=
           threshold_.load(std::memory_order_relaxed);
  }

  /// printf-style emission; appends the trailing newline itself. Prefer the
  /// HDMM_LOG macro, which skips argument evaluation when disabled.
  static void Write(LogLevel level, const char* format, ...)
      __attribute__((format(printf, 2, 3)));

 private:
  static std::atomic<int> threshold_;
};

/// HDMM_LOG(Warn, "disk tier degraded: %s", error.c_str());
#define HDMM_LOG(level, ...)                                         \
  do {                                                               \
    if (::hdmm::Log::Enabled(::hdmm::LogLevel::k##level)) {          \
      ::hdmm::Log::Write(::hdmm::LogLevel::k##level, __VA_ARGS__);   \
    }                                                                \
  } while (0)

}  // namespace hdmm

#endif  // HDMM_COMMON_LOG_H_
