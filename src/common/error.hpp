#pragma once
// Error handling: contract checks that throw typed exceptions. Kernels
// validate shapes at their public boundary and use unchecked accesses in
// inner loops (I.6 / ES.65: check preconditions at the interface).

#include <sstream>
#include <stdexcept>
#include <string>

namespace gpa {

/// Raised on malformed arguments (shape mismatch, invalid parameters).
class InvalidArgument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* expr, const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream os;
  os << "GPA_CHECK failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvalidArgument(os.str());
}
}  // namespace detail

}  // namespace gpa

/// Precondition check, always on (cheap argument validation only).
#define GPA_CHECK(expr, msg)                                                \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::gpa::detail::throw_check_failure(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                       \
  } while (false)
