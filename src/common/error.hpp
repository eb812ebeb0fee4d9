// Lightweight Result<T> / Error types used across all GRED modules.
//
// We deliberately avoid exceptions on hot paths (per-packet forwarding,
// per-item placement): fallible operations return Result<T>, which is a
// thin std::variant wrapper with an ergonomic API similar to
// std::expected (which libstdc++ 12 does not yet ship).
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace gred {

/// Machine-readable error category; `message` carries human detail.
enum class ErrorCode {
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kUnavailable,
  kInternal,
  // Routing-failure taxonomy (data plane). Distinct codes so retry
  // logic can tell a retryable drop from an invariant violation
  // (which stays kInternal).
  kRoutingLoop,  ///< hop bound exceeded (transient loop under stale tables)
  kNoRoute,      ///< flow-table miss: no relay/candidate/server to forward to
  kLinkDown,     ///< forwarding over a dead or missing physical link/switch
};

/// Human-readable name of an ErrorCode ("invalid_argument", ...).
constexpr const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kOutOfRange: return "out_of_range";
    case ErrorCode::kFailedPrecondition: return "failed_precondition";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kRoutingLoop: return "routing_loop";
    case ErrorCode::kNoRoute: return "no_route";
    case ErrorCode::kLinkDown: return "link_down";
  }
  return "unknown";
}

/// True for the routing-failure codes a client may retry (the drop was
/// caused by transient network state — a loop during reconvergence, a
/// stale table, a dead link — not by a broken invariant).
constexpr bool is_retryable_route_error(ErrorCode code) {
  return code == ErrorCode::kRoutingLoop || code == ErrorCode::kNoRoute ||
         code == ErrorCode::kLinkDown;
}

/// An error with a category and a human-readable message.
struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  Error() = default;
  Error(ErrorCode c, std::string msg) : code(c), message(std::move(msg)) {}

  /// "invalid_argument: n must be positive"
  std::string to_string() const {
    return std::string(gred::to_string(code)) + ": " + message;
  }
};

/// Result<T>: either a value of type T or an Error.
///
/// Usage:
///   Result<int> r = parse(s);
///   if (!r.ok()) return r.error();
///   use(r.value());
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : storage_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Result(Error error) : storage_(std::move(error)) {}      // NOLINT(google-explicit-constructor)
  Result(ErrorCode code, std::string msg) : storage_(Error{code, std::move(msg)}) {}
  /// Constructs the value in place from `args`: a caller that fills a
  /// large value through value() then returns this Result by name
  /// never moves the value.
  template <typename... Args>
  explicit Result(std::in_place_t, Args&&... args)
      : storage_(std::in_place_type<T>, std::forward<Args>(args)...) {}

  bool ok() const { return std::holds_alternative<T>(storage_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    assert(ok() && "Result::value() called on error");
    return std::get<T>(storage_);
  }
  T& value() & {
    assert(ok() && "Result::value() called on error");
    return std::get<T>(storage_);
  }
  T&& value() && {
    assert(ok() && "Result::value() called on error");
    return std::get<T>(std::move(storage_));
  }

  /// Returns the value, or `fallback` when this holds an error.
  T value_or(T fallback) const& {
    return ok() ? std::get<T>(storage_) : std::move(fallback);
  }

  const Error& error() const {
    assert(!ok() && "Result::error() called on value");
    return std::get<Error>(storage_);
  }

 private:
  std::variant<T, Error> storage_;
};

/// Result<void> analogue: success, or an Error.
class [[nodiscard]] Status {
 public:
  Status() = default;  // success
  Status(Error error) : error_(std::move(error)), failed_(true) {}  // NOLINT
  Status(ErrorCode code, std::string msg)
      : error_(code, std::move(msg)), failed_(true) {}

  static Status Ok() { return Status(); }

  bool ok() const { return !failed_; }
  explicit operator bool() const { return ok(); }

  const Error& error() const {
    assert(failed_ && "Status::error() called on success");
    return error_;
  }

 private:
  Error error_;
  bool failed_ = false;
};

}  // namespace gred
