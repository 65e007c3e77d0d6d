// Session: multi-frame batched submission over one compiled Plan with
// weight-residency caching. The first frame ever submitted pays the weight
// DRAM transfers; every later frame — including frames of *later*
// submit() calls — runs with weights resident on chip, generalizing the
// steady-state batch execution of the paper's evaluation. Per-frame and
// aggregate statistics flow through the same core/report pathway as
// everything else.
#pragma once

#include <cstddef>

#include "runtime/backend.hpp"

namespace esca::runtime {

class Session {
 public:
  /// Borrows `backend` (usually via Engine::open_session); the Session must
  /// not outlive it. The Plan is wrapped for sharing — prefer the PlanPtr
  /// overload when several Sessions execute the same network.
  Session(Backend& backend, Plan plan);

  /// Shared-plan Session: any number of Sessions (each over its own
  /// Backend replica) can execute one compiled Plan concurrently — the
  /// serve worker-pool building block. `plan` must be non-null.
  Session(Backend& backend, PlanPtr plan);

  const Plan& plan() const { return *plan_; }
  /// The shared Plan handle (open a replica Session with it).
  const PlanPtr& plan_ptr() const { return plan_; }
  Backend& backend() { return *backend_; }

  /// Run every frame of the batch, carrying weight residency from any
  /// previous submission. Returns the per-frame reports of this batch only.
  RunReport submit(const FrameBatch& batch, const RunOptions& options = {});

  std::size_t frames_submitted() const { return frames_submitted_; }

  /// True when the next submitted frame would reuse on-chip weights.
  bool weights_resident() const;

  /// Drop residency: the next frame pays the weight DRAM transfer again.
  void invalidate_weights();

 private:
  Backend* backend_;
  PlanPtr plan_;
  std::size_t frames_submitted_{0};
};

}  // namespace esca::runtime
