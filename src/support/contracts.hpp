/// \file contracts.hpp
/// \brief Lightweight design-by-contract macros used across the library.
///
/// The C++ Core Guidelines recommend stating preconditions (`Expects`) and
/// postconditions (`Ensures`) explicitly (I.5/I.7).  We throw a dedicated
/// exception type instead of calling `std::terminate` so that the test suite
/// can assert on contract violations, and so that long experiment sweeps can
/// report a broken invariant together with the offending configuration.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace radiocast {

/// Thrown when a precondition, postcondition or internal invariant is violated.
/// `what()` ends with the violated check's source location, for logs and
/// tests; `text()` is the same message without it, for messages that leave
/// the process (a daemon's error frames).
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(const std::string& text, const std::string& location)
      : std::logic_error(text + " (" + location + ")"),
        text_size_(text.size()) {}

  std::string text() const { return std::string(what(), text_size_); }

 private:
  std::size_t text_size_;
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& message) {
  std::string text(kind);
  text += " violated: ";
  text += expr;
  if (!message.empty()) {
    text += " — ";
    text += message;
  }
  std::string location(file);
  location += ':';
  location += std::to_string(line);
  throw ContractViolation(text, location);
}
}  // namespace detail

}  // namespace radiocast

/// Precondition check.  `msg` is optional context, evaluated lazily.
#define RC_EXPECTS(cond)                                                       \
  do {                                                                         \
    if (!(cond))                                                               \
      ::radiocast::detail::contract_fail("precondition", #cond, __FILE__,      \
                                         __LINE__, {});                        \
  } while (false)

#define RC_EXPECTS_MSG(cond, msg)                                              \
  do {                                                                         \
    if (!(cond))                                                               \
      ::radiocast::detail::contract_fail("precondition", #cond, __FILE__,      \
                                         __LINE__, (msg));                     \
  } while (false)

/// Postcondition check.
#define RC_ENSURES(cond)                                                       \
  do {                                                                         \
    if (!(cond))                                                               \
      ::radiocast::detail::contract_fail("postcondition", #cond, __FILE__,     \
                                         __LINE__, {});                        \
  } while (false)

/// Internal invariant check (always on: the library is about correctness
/// claims, so we do not compile these out in release builds).
#define RC_ASSERT(cond)                                                        \
  do {                                                                         \
    if (!(cond))                                                               \
      ::radiocast::detail::contract_fail("invariant", #cond, __FILE__,         \
                                         __LINE__, {});                        \
  } while (false)

#define RC_ASSERT_MSG(cond, msg)                                               \
  do {                                                                         \
    if (!(cond))                                                               \
      ::radiocast::detail::contract_fail("invariant", #cond, __FILE__,         \
                                         __LINE__, (msg));                     \
  } while (false)
