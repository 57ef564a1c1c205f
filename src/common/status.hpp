#pragma once
// Lightweight Status / Result<T> types used across the easched library.
//
// Expected failures (infeasible instance, solver did not converge, bad
// input graph) are values, not exceptions: library entry points return
// Status or Result<T>. Exceptions are reserved for programming errors
// (violated preconditions), which throw std::logic_error via EASCHED_CHECK.

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace easched::common {

/// Machine-readable failure category for library operations.
enum class StatusCode {
  kOk = 0,
  kInfeasible,       ///< the instance admits no feasible solution
  kUnbounded,        ///< optimisation problem is unbounded
  kNotConverged,     ///< iterative solver hit its iteration/time limit
  kInvalidArgument,  ///< structurally bad input (cycle, bad mapping, ...)
  kUnsupported,      ///< operation not defined for this input class
  kNotFound,         ///< named entity (solver, file, ...) does not exist
  kInternal,         ///< invariant violation inside the library
  kCancelled,        ///< caller cancelled the operation before it finished
  kDeadlineExceeded, ///< job deadline expired before the work could run
  kOverloaded,       ///< admission control shed the request (queue full / quota)
};

/// Human-readable name of a status code (stable, for logs and tests).
constexpr const char* to_string(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInfeasible: return "INFEASIBLE";
    case StatusCode::kUnbounded: return "UNBOUNDED";
    case StatusCode::kNotConverged: return "NOT_CONVERGED";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kUnsupported: return "UNSUPPORTED";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kOverloaded: return "OVERLOADED";
  }
  return "UNKNOWN";
}

/// Outcome of an operation that produces no value.
class [[nodiscard]] Status {
 public:
  /// Successful status.
  Status() = default;
  /// Failed status with a category and a diagnostic message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }
  static Status infeasible(std::string msg) { return {StatusCode::kInfeasible, std::move(msg)}; }
  static Status invalid(std::string msg) { return {StatusCode::kInvalidArgument, std::move(msg)}; }
  static Status unsupported(std::string msg) { return {StatusCode::kUnsupported, std::move(msg)}; }
  static Status not_found(std::string msg) { return {StatusCode::kNotFound, std::move(msg)}; }
  static Status not_converged(std::string msg) { return {StatusCode::kNotConverged, std::move(msg)}; }
  static Status internal(std::string msg) { return {StatusCode::kInternal, std::move(msg)}; }
  static Status cancelled(std::string msg) { return {StatusCode::kCancelled, std::move(msg)}; }
  static Status deadline_exceeded(std::string msg) { return {StatusCode::kDeadlineExceeded, std::move(msg)}; }
  static Status overloaded(std::string msg) { return {StatusCode::kOverloaded, std::move(msg)}; }

  bool is_ok() const noexcept { return code_ == StatusCode::kOk; }
  explicit operator bool() const noexcept { return is_ok(); }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// "OK" or "CODE: message" (for test output and bench logs).
  std::string to_string() const {
    if (is_ok()) return "OK";
    return std::string(common::to_string(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Outcome of an operation that produces a T on success.
///
/// Result is either a value or a non-OK Status; accessing the wrong side
/// throws std::logic_error (a programming error, not an expected failure).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}                // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {         // NOLINT(google-explicit-constructor)
    if (status_.is_ok()) {
      status_ = Status::internal("Result constructed from OK status without value");
    }
  }

  bool is_ok() const noexcept { return value_.has_value(); }
  explicit operator bool() const noexcept { return is_ok(); }

  const Status& status() const noexcept { return status_; }

  const T& value() const& {
    require_value();
    return *value_;
  }
  T& value() & {
    require_value();
    return *value_;
  }
  T&& take() && {
    require_value();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  const T* operator->() const { return &value(); }

  /// Value if present, otherwise the supplied fallback.
  T value_or(T fallback) const& { return value_ ? *value_ : std::move(fallback); }

 private:
  void require_value() const {
    if (!value_) {
      throw std::logic_error("Result::value() on error: " + status_.to_string());
    }
  }
  std::optional<T> value_;
  Status status_ = Status::ok();
};

namespace detail {
// The text names the failed expression and message only: it reaches
// daemon peers and CLI users (serve::build_problem forwards it), so it
// carries no source path.
[[noreturn]] inline void check_failed(const char* expr, const std::string& msg) {
  throw std::logic_error(std::string("EASCHED_CHECK failed: ") + expr +
                         (msg.empty() ? "" : (" - " + msg)));
}
}  // namespace detail

}  // namespace easched::common

/// Precondition check: throws std::logic_error when violated.
/// Used for programmer errors only; expected failures use Status.
#define EASCHED_CHECK(expr)                                           \
  do {                                                                \
    if (!(expr)) ::easched::common::detail::check_failed(#expr, ""); \
  } while (false)

#define EASCHED_CHECK_MSG(expr, msg)                                     \
  do {                                                                   \
    if (!(expr)) ::easched::common::detail::check_failed(#expr, (msg)); \
  } while (false)
