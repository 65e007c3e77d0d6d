#include "common/env.hpp"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "common/logging.hpp"

namespace esca {

namespace {

/// Trailing whitespace after the number is tolerated; any other trailing
/// character rejects the value ("4x" is a typo, not a 4).
bool only_whitespace(const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s != ' ' && *s != '\t' && *s != '\n' && *s != '\r') return false;
  }
  return true;
}

}  // namespace

std::optional<long long> env_int(const char* name, long long lo, long long hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || !only_whitespace(end) || errno == ERANGE) {
    ESCA_LOG_WARN << name << "='" << raw << "' is not an integer — ignoring it";
    return std::nullopt;
  }
  if (v < lo || v > hi) {
    ESCA_LOG_WARN << name << "=" << v << " is outside [" << lo << ", " << hi
                  << "] — ignoring it";
    return std::nullopt;
  }
  return v;
}

}  // namespace esca
