// Hardened environment-variable parsing.
//
// The integer ESCA_* runtime knobs (ESCA_THREADS, trace capacity) must not
// be read with bare atoi, which turns a typo like ESCA_THREADS=4x into a
// silent 4 and ESCA_THREADS=abc into a silent 0 — an operator could not
// tell a misspelled knob from an unset one. env_int parses strictly
// instead: the whole value must be a number and it must lie inside the
// caller's [lo, hi] bound, otherwise a warning naming the variable and the
// offending value is logged and nullopt comes back, so the caller falls
// through to its documented default exactly as if the variable were unset.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

namespace esca {

/// Read an integer environment variable. nullopt when unset; a value that
/// does not parse as a whole integer or lies outside [lo, hi] logs one
/// warning (naming the variable) and also yields nullopt.
std::optional<long long> env_int(
    const char* name, long long lo = std::numeric_limits<long long>::min(),
    long long hi = std::numeric_limits<long long>::max());

}  // namespace esca
