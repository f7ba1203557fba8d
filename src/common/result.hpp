// Error codes and a lightweight Result<T> for fallible file-system calls.
//
// The client-facing API (open/read/write/...) reports failures the way a
// kernel VFS would: with an error code, not an exception. Result<T> is a
// minimal expected-like type (std::expected is C++23; this project targets
// C++20).
#pragma once

#include <optional>
#include <ostream>
#include <string_view>
#include <utility>
#include <variant>

#include "common/assert.hpp"

namespace stank {

// Outcome of a file-system or protocol operation.
enum class ErrorCode {
  kOk = 0,
  kNotFound,        // no such file
  kExists,          // create of an existing file
  kBadHandle,       // file descriptor not open
  kLockConflict,    // lock unavailable and caller asked not to wait
  kLeaseExpired,    // client lease lapsed; cache and locks invalid
  kQuiesced,        // client is in lease phase 3/4 and not accepting work
  kFenced,          // disk rejected I/O from a fenced initiator
  kIoError,         // SAN-level delivery failure
  kTimeout,         // control-network request exhausted retries
  kNacked,          // server negatively acknowledged: client state is suspect
  kInvalidArgument, // malformed request
  kNoSpace,         // allocator exhausted
  kShutdown,        // node has been stopped / crashed
  kStaleSession,    // server restarted and lost this session: re-register and
                    // reassert locks (paper section 6)
  kRetryLater,      // server is in its post-restart grace period
};

[[nodiscard]] constexpr const char* to_string(ErrorCode e) {
  switch (e) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kNotFound: return "not-found";
    case ErrorCode::kExists: return "exists";
    case ErrorCode::kBadHandle: return "bad-handle";
    case ErrorCode::kLockConflict: return "lock-conflict";
    case ErrorCode::kLeaseExpired: return "lease-expired";
    case ErrorCode::kQuiesced: return "quiesced";
    case ErrorCode::kFenced: return "fenced";
    case ErrorCode::kIoError: return "io-error";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kNacked: return "nacked";
    case ErrorCode::kInvalidArgument: return "invalid-argument";
    case ErrorCode::kNoSpace: return "no-space";
    case ErrorCode::kShutdown: return "shutdown";
    case ErrorCode::kStaleSession: return "stale-session";
    case ErrorCode::kRetryLater: return "retry-later";
  }
  return "unknown";
}

// Highest valid ErrorCode: the wire codec rejects an error byte above it.
// The static_assert fails if a code is appended without moving the bound.
[[nodiscard]] constexpr ErrorCode max_enumerator(ErrorCode) { return ErrorCode::kRetryLater; }
static_assert(std::string_view(to_string(static_cast<ErrorCode>(
                  static_cast<int>(max_enumerator(ErrorCode{})) + 1))) == "unknown");

inline std::ostream& operator<<(std::ostream& os, ErrorCode e) { return os << to_string(e); }

// Holds either a value or an ErrorCode (never kOk when holding an error).
template <typename T>
class Result {
 public:
  Result(T value) : state_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(ErrorCode error) : state_(error) {      // NOLINT(google-explicit-constructor)
    STANK_ASSERT_MSG(error != ErrorCode::kOk, "error Result must not hold kOk");
  }

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] ErrorCode error() const {
    return ok() ? ErrorCode::kOk : std::get<ErrorCode>(state_);
  }

  [[nodiscard]] T& value() & {
    STANK_ASSERT_MSG(ok(), "Result::value() on error");
    return std::get<T>(state_);
  }
  [[nodiscard]] const T& value() const& {
    STANK_ASSERT_MSG(ok(), "Result::value() on error");
    return std::get<T>(state_);
  }
  [[nodiscard]] T&& value() && {
    STANK_ASSERT_MSG(ok(), "Result::value() on error");
    return std::get<T>(std::move(state_));
  }

  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? std::get<T>(state_) : std::move(fallback);
  }

 private:
  std::variant<T, ErrorCode> state_;
};

// Specialization-free void flavour.
class Status {
 public:
  Status() : error_(ErrorCode::kOk) {}
  Status(ErrorCode error) : error_(error) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] static Status ok() { return Status{}; }

  [[nodiscard]] bool is_ok() const { return error_ == ErrorCode::kOk; }
  explicit operator bool() const { return is_ok(); }
  [[nodiscard]] ErrorCode error() const { return error_; }

  friend bool operator==(Status, Status) = default;

 private:
  ErrorCode error_;
};

inline std::ostream& operator<<(std::ostream& os, Status s) { return os << s.error(); }

}  // namespace stank
