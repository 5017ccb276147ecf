#ifndef CFNET_UTIL_LOGGING_H_
#define CFNET_UTIL_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace cfnet {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// Messages below this level are dropped.
inline constexpr LogLevel kMinLogLevel = LogLevel::kInfo;

namespace internal_logging {

/// Stream-style log sink. Emits on destruction; FATAL aborts the process.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the level is disabled.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal_logging

#define CFNET_LOG_ENABLED(level) \
  (::cfnet::LogLevel::level >= ::cfnet::kMinLogLevel)

#define CFNET_LOG(level)                                                 \
  if (!CFNET_LOG_ENABLED(k##level))                                      \
    ;                                                                    \
  else                                                                   \
    ::cfnet::internal_logging::LogMessage(::cfnet::LogLevel::k##level,   \
                                          __FILE__, __LINE__)            \
        .stream()

/// Always-on invariant check (enabled in release builds too).
#define CFNET_CHECK(cond)                                                \
  if (cond)                                                              \
    ;                                                                    \
  else                                                                   \
    ::cfnet::internal_logging::LogMessage(::cfnet::LogLevel::kFatal,     \
                                          __FILE__, __LINE__)            \
            .stream()                                                    \
        << "Check failed: " #cond " "

}  // namespace cfnet

#endif  // CFNET_UTIL_LOGGING_H_
