// Contract checking and error types shared across the reclaim library.
//
// Following the C++ Core Guidelines (I.5/I.6, E.2/E.3) we express
// preconditions as named check functions that throw typed exceptions;
// there are no assertion macros and no error codes in the public API.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace reclaim {

/// Base class for all errors raised by the reclaim library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition (bad argument, malformed
/// graph, inconsistent mapping, ...).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A numerical routine failed to converge or detected an ill-posed input
/// (singular matrix, unbounded LP, ...).
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

namespace util {

/// Throws InvalidArgument with `message` when `condition` is false.
void require(bool condition, std::string_view message);

/// Throws NumericalError with `message` when `condition` is false.
void require_numeric(bool condition, std::string_view message);

/// The system error message for `err` (an errno value). Thread-safe,
/// unlike std::strerror's shared static buffer — use this in any code a
/// worker or reader thread may run (clang-tidy's concurrency-mt-unsafe
/// flags strerror for exactly this reason).
[[nodiscard]] std::string errno_string(int err);

}  // namespace util
}  // namespace reclaim
