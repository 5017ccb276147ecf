#ifndef CFNET_UTIL_STATUS_H_
#define CFNET_UTIL_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace cfnet {

/// Canonical error codes, modeled after the absl/RocksDB status idiom.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kResourceExhausted,
  kUnavailable,
  kInternal,
  kCorruption,
  kIOError,
  kAborted,
};

/// Returns a stable human-readable name for `code` ("OK", "NotFound", ...).
std::string_view StatusCodeName(StatusCode code);

/// Value type carrying either success or an error code plus message.
///
/// cfnet never throws across public API boundaries; fallible operations
/// return `Status` (or `Result<T>` when they also produce a value).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagates a non-OK status out of the enclosing function.
#define CFNET_RETURN_IF_ERROR(expr)                  \
  do {                                               \
    ::cfnet::Status _cfnet_status = (expr);          \
    if (!_cfnet_status.ok()) return _cfnet_status;   \
  } while (0)

}  // namespace cfnet

#endif  // CFNET_UTIL_STATUS_H_
