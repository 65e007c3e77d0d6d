// Engine: backend selection/configuration from a single RuntimeConfig, plus
// the compile entry points. The Engine is the canonical way to run anything
// in this repository — examples, benches and tests all go through it:
//
//   runtime::Engine engine;                       // ESCA simulator, defaults
//   runtime::Plan plan = engine.compile(trace);   // quantize + gold
//   runtime::RunReport r = engine.run(plan, runtime::FrameBatch::replay(8));
//
// For streaming workloads, open_session() returns a Session that carries
// weight residency across submissions (see session.hpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "core/layer_compiler.hpp"
#include "runtime/backend.hpp"
#include "runtime/session.hpp"

namespace esca::runtime {

/// Which execution backend an Engine drives.
enum class BackendKind : std::uint8_t {
  kEsca,  ///< cycle-level ESCA simulator (the paper's accelerator)
  kCpu,   ///< host ComputeEngine execution, wall-clock timed
};

/// Parse "esca" / "cpu" (throws esca::InvalidArgument otherwise).
BackendKind parse_backend_kind(const std::string& name);
const char* to_string(BackendKind kind);

/// Everything needed to construct and configure a backend.
struct RuntimeConfig {
  BackendKind backend{BackendKind::kEsca};
  core::ArchConfig arch{};  ///< ESCA backend parameters
};

/// Standalone factory (Engine uses it; exposed for custom harnesses).
std::unique_ptr<Backend> make_backend(const RuntimeConfig& config);

class Engine {
 public:
  Engine() : Engine(RuntimeConfig{}) {}
  explicit Engine(RuntimeConfig config);

  const RuntimeConfig& config() const { return config_; }
  Backend& backend() { return *backend_; }
  const Backend& backend() const { return *backend_; }

  /// Lower a traced forward pass into an executable Plan.
  Plan compile(const std::vector<nn::TraceEntry>& trace) const;

  /// Lower one standalone float Sub-Conv layer (calibrate + quantize + gold).
  Plan compile_layer(const nn::SparseConv3d& conv, const sparse::SparseTensor& input,
                     const core::LayerCompileOptions& options = {}) const;

  /// One-shot batched execution: the first frame pays the weight DRAM
  /// transfers, later frames of the batch reuse the resident weights.
  RunReport run(const Plan& plan, const FrameBatch& batch = {},
                const RunOptions& options = {});

  /// Open a streaming session over a Plan; weight residency is carried
  /// across submit() calls. The Session borrows this Engine's backend and
  /// must not outlive it.
  Session open_session(Plan plan);

  /// Open a session over an already-shared Plan (serve worker replication:
  /// every worker's Engine opens its own Session over one PlanPtr).
  Session open_session(PlanPtr plan);

 private:
  RuntimeConfig config_;
  std::unique_ptr<Backend> backend_;
};

}  // namespace esca::runtime
