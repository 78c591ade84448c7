// Contract checking. SFI is a simulator: an internal invariant violation is a
// bug in the tool, never a modelled fault, so checks throw (they must not be
// confused with the modelled machine's checkstops).
#pragma once

#include <stdexcept>
#include <string>

namespace sfi {

/// Thrown when an internal invariant of the simulator itself is violated.
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown on invalid arguments at public API boundaries.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

namespace detail {
// The throw paths of ensure()/require(), kept out of line and cold: a check
// inlined into a hot accessor then costs one compare and a never-taken
// branch, instead of dragging the message's std::string construction (and
// the stack frame it needs) into every caller.
[[noreturn]] [[gnu::cold]] [[gnu::noinline]] inline void throw_internal(
    const char* what) {
  throw InternalError(std::string("sfi internal error: ") + what);
}
[[noreturn]] [[gnu::cold]] [[gnu::noinline]] inline void throw_usage(
    const char* what) {
  throw UsageError(std::string("sfi usage error: ") + what);
}
}  // namespace detail

/// Verify an internal invariant; throws InternalError when violated.
/// constexpr so it can guard constant-evaluated helpers (a failing check in a
/// constant expression is a compile error, which is exactly right).
constexpr void ensure(bool cond, const char* what) {
  if (!cond) [[unlikely]] detail::throw_internal(what);
}

/// Validate a precondition of a public API; throws UsageError when violated.
constexpr void require(bool cond, const char* what) {
  if (!cond) [[unlikely]] detail::throw_usage(what);
}

}  // namespace sfi
