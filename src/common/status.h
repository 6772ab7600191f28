#ifndef TRACER_COMMON_STATUS_H_
#define TRACER_COMMON_STATUS_H_

#include <string>
#include <utility>

#include "common/macros.h"

namespace tracer {

/// Error code vocabulary for recoverable failures. Follows the RocksDB /
/// Arrow convention: library code never throws; operations that can fail in
/// normal use return a Status (or Result<T>).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIOError,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kUnavailable,
  kDeadlineExceeded,
  kDataLoss,
};

/// Lightweight success/error value. An OK status carries no message.
/// [[nodiscard]]: a dropped Status is a swallowed failure — every call
/// site must consume it (assign, return, TRACER_RETURN_IF_ERROR, check) or
/// discard it *explicitly* with TRACER_IGNORE_STATUS, which lint rule
/// unchecked-status (tools/lint.py) can count.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// The operation was load-shed (e.g. a bounded serving queue is full);
  /// retrying later may succeed.
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  /// The caller's deadline passed before the operation completed.
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  /// Stored data is unrecoverably damaged (truncated or corrupt container);
  /// retrying the same read cannot succeed — the artifact must be rebuilt
  /// or restored from a replica.
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "InvalidArgument: bad dim".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Value-or-error, the no-exceptions analogue of std::expected.
/// [[nodiscard]] for the same reason as Status: an unexamined Result hides
/// the error it may carry.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from a value: `Result<int> r = 3;`
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}
  /// Implicit from a non-OK status.
  Result(Status status) : status_(std::move(status)) {
    TRACER_CHECK(!status_.ok()) << "Result constructed from OK status";
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Access the value; CHECK-fails if this holds an error.
  const T& value() const& {
    TRACER_CHECK(ok()) << status_.ToString();
    return value_;
  }
  T& value() & {
    TRACER_CHECK(ok()) << status_.ToString();
    return value_;
  }
  T&& value() && {
    TRACER_CHECK(ok()) << status_.ToString();
    return std::move(value_);
  }

 private:
  Status status_;
  T value_{};
};

}  // namespace tracer

/// Early-return helper: propagate a non-OK status to the caller.
#define TRACER_RETURN_IF_ERROR(expr)        \
  do {                                      \
    ::tracer::Status _st = (expr);          \
    if (!_st.ok()) return _st;              \
  } while (0)

/// Explicitly discards a Status where failure is genuinely acceptable
/// (best-effort cleanup, an error path already being reported). Greppable
/// and counted by lint rule unchecked-status — prefer handling the status;
/// every use of this macro is an audited exception, so say why in a
/// comment at the call site.
#define TRACER_IGNORE_STATUS(expr)                        \
  do {                                                    \
    const ::tracer::Status _ignored_status = (expr);      \
    (void)_ignored_status;                                \
  } while (0)

#endif  // TRACER_COMMON_STATUS_H_
