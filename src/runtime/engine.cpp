#include "runtime/engine.hpp"

#include <utility>

#include "common/check.hpp"
#include "runtime/cpu_backend.hpp"
#include "runtime/esca_backend.hpp"

namespace esca::runtime {

BackendKind parse_backend_kind(const std::string& name) {
  if (name == "esca") return BackendKind::kEsca;
  ESCA_REQUIRE(name == "cpu", "unknown backend '" << name << "' (want esca|cpu)");
  return BackendKind::kCpu;
}

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kEsca: return "esca";
    case BackendKind::kCpu: return "cpu";
  }
  return "?";
}

std::unique_ptr<Backend> make_backend(const RuntimeConfig& config) {
  switch (config.backend) {
    case BackendKind::kEsca: return std::make_unique<EscaBackend>(config.arch);
    case BackendKind::kCpu: break;
  }
  ESCA_CHECK(config.backend == BackendKind::kCpu,
             "unhandled BackendKind " << static_cast<int>(config.backend));
  return std::make_unique<CpuBackend>();
}

Engine::Engine(RuntimeConfig config)
    : config_(std::move(config)), backend_(make_backend(config_)) {}

Plan Engine::compile(const std::vector<nn::TraceEntry>& trace) const {
  return make_plan(core::LayerCompiler::compile(trace));
}

Plan Engine::compile_layer(const nn::SparseConv3d& conv,
                           const sparse::SparseTensor& input,
                           const core::LayerCompileOptions& options) const {
  core::CompiledNetwork network;
  network.layers.push_back(core::LayerCompiler::compile_layer(conv, input, options));
  return make_plan(std::move(network));
}

RunReport Engine::run(const Plan& plan, const FrameBatch& batch, const RunOptions& options) {
  return backend_->run(plan, batch, options);
}

Session Engine::open_session(Plan plan) { return Session(*backend_, std::move(plan)); }

Session Engine::open_session(PlanPtr plan) { return Session(*backend_, std::move(plan)); }

}  // namespace esca::runtime
