// Lightweight runtime-check macros used across the library.
//
// VARPRED_CHECK(cond, msg)      -- throws varpred::CheckError on failure.
// VARPRED_CHECK_ARG(cond, msg)  -- throws std::invalid_argument on failure.
//
// Checks guard API contracts (argument validity, internal invariants); they
// are always on -- performance-critical inner loops should validate once at
// entry, not per element.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace varpred {

/// Error thrown when an internal invariant is violated.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

// A failed check on hostile input (a malformed frame, say) is a hot path.
// The message is appended into one reserved string, and nothing with a
// destructor is alive at the throw: `msg` is a view (a literal costs no
// std::string), and the built text is a temporary of the throw operand.
// Every cleanup the unwinder must stop at costs about as much as the
// throw itself.
inline std::string check_what(std::string_view head, std::string_view expr,
                              std::string_view msg) {
  std::string what;
  what.reserve(head.size() + expr.size() + msg.size() + 6);
  what.append(head).append(expr).append(")");
  if (!msg.empty()) what.append(" -- ").append(msg);
  return what;
}

[[noreturn]] inline void check_failed(const char* file, int line,
                                      const char* expr,
                                      std::string_view msg) {
  throw CheckError(check_what(std::string(file) + ":" +
                                  std::to_string(line) + ": check failed: (",
                              expr, msg));
}

[[noreturn]] inline void arg_check_failed(const char* expr,
                                          std::string_view msg) {
  throw std::invalid_argument(
      check_what("invalid argument: (", expr, msg));
}

}  // namespace detail
}  // namespace varpred

#define VARPRED_CHECK(cond, msg)                                       \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::varpred::detail::check_failed(__FILE__, __LINE__, #cond, msg);  \
    }                                                                   \
  } while (0)

#define VARPRED_CHECK_ARG(cond, msg)                       \
  do {                                                      \
    if (!(cond)) {                                          \
      ::varpred::detail::arg_check_failed(#cond, msg);      \
    }                                                       \
  } while (0)
