// esca::fault — deterministic, seeded fault injection.
//
// Production failure paths are worthless untested: kFailed existed for five
// PRs before anything systematically exercised it. The Injector arms named
// *injection sites* — fixed points threaded through the layers that can
// realistically fail in production (runtime execution, stream diff/patch,
// serve admission and pickup, scratch-arena growth, executor partitions) —
// with per-site schedules parsed from a spec string:
//
//   seed=42;runtime.run:p=0.05;stream.patch:nth=3;serve.pickup.delay:delay_ms=2
//
//   pattern   exact site name, a prefix wildcard ("serve.*") or "*";
//             the most specific match wins (exact > longest prefix > *).
//   p=F       fire with probability F per call. The decision for call n is
//             hash64(seed, site, n) < F — a pure function of (seed, site,
//             call index), so a schedule replays identically run to run and
//             is independent of how calls interleave across threads.
//   nth=N     fire on exactly the N-th call of the site (1-based).
//   once      one-shot: disarm the site after its first fire (max=1).
//   max=N     cap total fires of the site at N.
//   delay_ms=F  what maybe_delay() sleeps when the site fires.
//   nonstd    maybe_throw() throws InjectedFaultNonStd — a type that does
//             NOT derive from std::exception — to exercise catch (...) paths.
//
// A site with no p= and no nth= fires on every call (p=1), so "site:once"
// reads as "fail the first call".
//
// Call sites use the three free functions — the unarmed fast path is one
// relaxed atomic load, and under -DESCA_FAULT=0 they compile to constants
// so release builds carry zero cost:
//
//   fault::maybe_throw("runtime.run");          // throw InjectedFault
//   fault::maybe_delay("serve.pickup.delay");   // sleep delay_ms
//   if (fault::maybe_fire("stream.force_rebuild")) { ...degraded path... }
//
// Every fired fault increments the process-wide registry counter
// esca_fault_injected_total, the per-site count (Injector::fired) and — when
// the obs tracer is recording — emits a "fault.inject" span, so a chaos
// run's timeline shows exactly where the faults landed.
//
// The global() instance arms itself from the ESCA_FAULT environment
// variable on first use (a malformed env spec warns and leaves injection
// disarmed rather than aborting the process); tests arm programmatically
// with configure()/reset().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/check.hpp"

// Compile gate: -DESCA_FAULT=0 turns every injection site into a no-op
// (maybe_fire a constant false), deleting the subsystem from release builds.
#ifndef ESCA_FAULT
#define ESCA_FAULT 1
#endif

namespace esca::fault {

/// True when injection sites are compiled in (ESCA_FAULT != 0).
constexpr bool injection_compiled() { return ESCA_FAULT != 0; }

/// What maybe_throw() throws at an armed site (default schedule kind).
class InjectedFault : public RuntimeError {
 public:
  explicit InjectedFault(const std::string& what) : RuntimeError(what) {}
};

/// Thrown by maybe_throw() at a site armed with `nonstd` — deliberately NOT
/// derived from std::exception, to exercise catch (...) hardening.
struct InjectedFaultNonStd {
  const char* site;
};

#if ESCA_FAULT

class Injector {
 public:
  Injector() = default;
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// The process-wide injector every site checks. The first access arms it
  /// from the ESCA_FAULT environment variable (when set).
  static Injector& global();

  /// Replace the armed schedules with `spec` (syntax above) and zero all
  /// call/fire state. An empty spec disarms. Throws esca::InvalidArgument
  /// on a malformed spec. Like TraceSession control, rearming is a
  /// quiescent-point operation: call it while no site is mid-fire (between
  /// chaos runs, after draining a server), not under live traffic.
  void configure(const std::string& spec);

  /// Disarm everything and zero all call/fire state.
  void reset();

  /// True when any schedule is armed (the fast-path check the free
  /// functions make before touching site state).
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  std::uint64_t seed() const;

  /// Evaluate one call of `site` against its schedule; true = the fault
  /// fires (recorded). Registers the site on first call.
  bool fire(const char* site);

  /// fire() and, when fired, throw InjectedFault (or InjectedFaultNonStd
  /// for a `nonstd` schedule) after sleeping any configured delay_ms.
  void throw_if_armed(const char* site);

  /// fire() and, when fired, sleep the schedule's delay_ms.
  void delay_if_armed(const char* site);

  /// Observability for tests and reports.
  std::uint64_t calls(const std::string& site) const;
  std::uint64_t fired(const std::string& site) const;
  std::uint64_t total_fired() const;

 private:
  struct Impl;
  Impl* impl();  ///< lazily constructed, intentionally leaked (see .cpp)
  const Impl* impl() const;

  std::atomic<bool> armed_{false};
  mutable std::atomic<Impl*> impl_{nullptr};
};

/// Throw InjectedFault / InjectedFaultNonStd when `site` is armed and its
/// schedule fires this call. One relaxed load when nothing is armed.
inline void maybe_throw(const char* site) {
  Injector& injector = Injector::global();
  if (injector.armed()) injector.throw_if_armed(site);
}

/// Sleep the site's delay_ms when its schedule fires this call.
inline void maybe_delay(const char* site) {
  Injector& injector = Injector::global();
  if (injector.armed()) injector.delay_if_armed(site);
}

/// True when the site's schedule fires this call (flag sites: callers take
/// a degraded path instead of throwing).
inline bool maybe_fire(const char* site) {
  Injector& injector = Injector::global();
  return injector.armed() && injector.fire(site);
}

#else  // ESCA_FAULT == 0: every site compiles to nothing.

inline void maybe_throw(const char*) {}
inline void maybe_delay(const char*) {}
inline constexpr bool maybe_fire(const char*) { return false; }

#endif  // ESCA_FAULT

}  // namespace esca::fault
