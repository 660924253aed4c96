// Minimal leveled logging to stderr. Benchmarks and the pipeline use INFO
// for progress; tests typically run at WARN.
//
// Thread safety: the global level is an atomic (relaxed loads/stores), so
// Get/SetLogLevel may race freely — worker threads log concurrently with
// the main loop, and a worker may observe a level change slightly late,
// never a torn value. Each message is buffered whole in its LogMessage and
// written to std::cerr in one call; interleaving between concurrent
// messages happens only at whole-message granularity on glibc
// (POSIX-locked FILE streams). Pinned by ObservabilityTest
// ConcurrentLogLevelAndLogging under the tsan preset.
//
// In the static thread-safety model (DESIGN.md §11) logging is therefore
// the one concurrent component with no capability at all: it owns no
// mutex, guards no fields, and needs no annotations — there is nothing
// for -Wthread-safety to check, by construction.
#pragma once

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace ie {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Global minimum level; messages below it are dropped. Atomic: safe to
/// call from any thread at any time (see the thread-safety note above).
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the level is disabled.
struct LogVoidify {
  void operator&(std::ostream&) {}
};

/// Prints on destruction, then aborts. Used by IE_CHECK so the message is
/// flushed before the process dies.
class FatalLogMessage : public LogMessage {
 public:
  FatalLogMessage(const char* file, int line)
      : LogMessage(LogLevel::kError, file, line) {}
  [[noreturn]] ~FatalLogMessage();
};

}  // namespace internal
}  // namespace ie

#define IE_LOG_ENABLED(level) (::ie::LogLevel::level >= ::ie::GetLogLevel())

#define IE_LOG(level)                             \
  !IE_LOG_ENABLED(level)                          \
      ? (void)0                                   \
      : ::ie::internal::LogVoidify() &            \
            ::ie::internal::LogMessage(           \
                ::ie::LogLevel::level, __FILE__, __LINE__) \
                .stream()

#define IE_CHECK(cond)                                               \
  (cond) ? (void)0                                                   \
         : ::ie::internal::LogVoidify() &                            \
               ::ie::internal::FatalLogMessage(__FILE__, __LINE__)   \
                       .stream()                                     \
                   << "Check failed: " #cond " "
