#include "runtime/session.hpp"

#include <utility>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace esca::runtime {

Session::Session(Backend& backend, Plan plan)
    : Session(backend, share_plan(std::move(plan))) {}

Session::Session(Backend& backend, PlanPtr plan)
    : backend_(&backend), plan_(std::move(plan)) {
  ESCA_REQUIRE(plan_ != nullptr, "session plan is null");
  ESCA_REQUIRE(!plan_->network.layers.empty(), "session plan has no layers");
}

RunReport Session::submit(const FrameBatch& batch, const RunOptions& options) {
  ESCA_REQUIRE(batch.size() >= 1, "batch must contain at least one frame");
  obs::Span span("runtime.submit");
  span.arg("frames", batch.size());
  RunReport report;
  report.backend_name = backend_->name();
  for (const std::string& frame_id : batch.frame_ids) {
    report.frames.push_back(backend_->run_frame(*plan_, frame_id, options));
    ++frames_submitted_;
  }
  return report;
}

bool Session::weights_resident() const { return backend_->weights_resident_for(*plan_); }

void Session::invalidate_weights() { backend_->invalidate_weights(); }

}  // namespace esca::runtime
