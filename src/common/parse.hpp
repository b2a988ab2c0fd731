#pragma once
// Whole-string integer parsing for command-line values. One rule for
// every binary: the value must be a base-10 integer with nothing after
// it ("9100x", "0x" and "1e4" are rejected, where a bare std::stoll
// would read a prefix) and must lie in the flag's range.

#include <stdexcept>
#include <string>

#include "common/error.hpp"

namespace gpa {

/// `text` as an integer in [lo, hi]. Throws InvalidArgument naming
/// `name` (the flag, or what the value is) and `text` otherwise.
inline long long parse_integer(const std::string& name, const std::string& text, long long lo,
                               long long hi) {
  long long value = 0;
  std::size_t pos = 0;
  bool in_range = true;
  try {
    value = std::stoll(text, &pos);
  } catch (const std::out_of_range&) {
    in_range = false;
    pos = text.size();
  } catch (const std::invalid_argument&) {
    pos = 0;
  }
  if (pos == 0 || pos != text.size()) {
    throw InvalidArgument(name + " expects an integer, got \"" + text + "\"");
  }
  if (!in_range || value < lo || value > hi) {
    throw InvalidArgument(name + " must be in [" + std::to_string(lo) + ", " +
                          std::to_string(hi) + "], got " + text);
  }
  return value;
}

}  // namespace gpa
