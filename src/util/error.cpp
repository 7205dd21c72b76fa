#include "util/error.hpp"

#include <system_error>

namespace reclaim::util {

void require(bool condition, std::string_view message) {
  if (!condition) throw InvalidArgument(std::string(message));
}

void require_numeric(bool condition, std::string_view message) {
  if (!condition) throw NumericalError(std::string(message));
}

std::string errno_string(int err) {
  return std::generic_category().message(err);
}

}  // namespace reclaim::util
