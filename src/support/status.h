// Structured error taxonomy for the serve boundary.
//
// Inside the library, failure is expressive: diagnostics for load errors,
// Table-3 verdicts for replays. At the boundary where untrusted requests
// meet the checker — spexcheckd, CheckConfigBatch's per-config reports —
// every outcome must collapse into a machine-readable status a client can
// branch on: was my config checked, shed, malformed, or out of time? The
// codes mirror the well-known RPC vocabulary so operators need no new
// glossary, but only the rows this service can actually produce exist.
#ifndef SPEX_SUPPORT_STATUS_H_
#define SPEX_SUPPORT_STATUS_H_

#include <cstddef>
#include <string>
#include <utility>

namespace spex {

enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument,    // Malformed/oversized request or config text.
  kNotFound,           // Unknown target or route.
  kDeadlineExceeded,   // The request's deadline fired mid-check.
  kCancelled,          // Explicit cancellation (client gone, server drain).
  kResourceExhausted,  // Admission control shed the request; retry later.
  kUnavailable,        // Server is draining and accepts no new work.
  kInternal,           // Bug or invariant violation; never expected.
};

inline constexpr size_t kStatusCodeCount = static_cast<size_t>(StatusCode::kInternal) + 1;

// Stable lower_snake_case wire name ("deadline_exceeded"): what spexcheckd
// emits in JSON and what the tests grep for.
const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() = default;  // kOk.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "deadline_exceeded: replay of 'port' overran 250ms" — or "ok".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

}  // namespace spex

#endif  // SPEX_SUPPORT_STATUS_H_
