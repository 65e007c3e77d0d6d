#include "runtime/esca_backend.hpp"

#include <utility>

namespace esca::runtime {

EscaBackend::EscaBackend(core::ArchConfig config) : accelerator_(std::move(config)) {}

core::LayerRunStats EscaBackend::time_layer(const core::CompiledLayer& layer,
                                            bool weights_resident,
                                            std::optional<quant::QSparseTensor>& /*output*/) {
  // Plan-cached geometry: the site tensor (and its Morton index) and the
  // rulebook were built once at compile time; no per-frame rebuild.
  return accelerator_.run_layer(layer.layer, *layer.geometry,
                                {.weights_resident = weights_resident});
}

}  // namespace esca::runtime
