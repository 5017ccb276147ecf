#include "util/logging.h"

#include <chrono>
#include <cstdio>
#include <mutex>

namespace cfnet {
namespace {

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

std::mutex& LogMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

}  // namespace

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelTag(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  {
    std::lock_guard<std::mutex> lock(LogMutex());
    std::fputs(stream_.str().c_str(), stderr);
    std::fputc('\n', stderr);
    std::fflush(stderr);
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal_logging
}  // namespace cfnet
