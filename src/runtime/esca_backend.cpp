#include "runtime/esca_backend.hpp"

#include <utility>

namespace esca::runtime {

EscaBackend::EscaBackend(core::ArchConfig config) : accelerator_(std::move(config)) {}

core::TiledGeometry& EscaBackend::tiled_geometry(const Plan& plan,
                                                 const core::CompiledLayer& layer) {
  if (tiled_plan_uid_ != plan.uid) {
    tiled_.clear();
    tiled_plan_uid_ = plan.uid;
  }
  for (TiledRecord& record : tiled_) {
    if (!record.geometry.owner_before(layer.geometry) &&
        !layer.geometry.owner_before(record.geometry)) {
      return record.tiled;
    }
  }
  core::TiledGeometry tiled = accelerator_.tile_geometry(
      *layer.geometry, accelerator_.config().cycles_per_match(layer.layer.in_channels(),
                                                              layer.layer.out_channels()));
  return tiled_.emplace_back(TiledRecord{layer.geometry, std::move(tiled)}).tiled;
}

core::LayerRunStats EscaBackend::time_layer(const Plan& plan, const core::CompiledLayer& layer,
                                            bool weights_resident,
                                            std::optional<quant::QSparseTensor>& /*output*/) {
  // Plan-cached geometry: the site tensor (and its Morton index) and the
  // rulebook were built once at compile time; no per-frame rebuild.
  return accelerator_.run_layer(layer.layer, tiled_geometry(plan, layer),
                                {.weights_resident = weights_resident});
}

}  // namespace esca::runtime
