#include "core/layer_compiler.hpp"

#include "common/check.hpp"
#include "nn/activations.hpp"

namespace esca::core {

std::int64_t CompiledNetwork::total_macs() const {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.gold_macs;
  return n;
}

CompiledNetwork LayerCompiler::compile(const std::vector<nn::TraceEntry>& trace) {
  CompiledNetwork network;
  for (const nn::TraceEntry& entry : trace) {
    if (entry.kind != nn::LayerKind::kSubmanifoldConv) continue;
    ESCA_CHECK(entry.subconv != nullptr, "trace entry '" << entry.name
                                                         << "' missing conv pointer");

    // The trace carries the geometry each layer actually executed with
    // (one build per scale); fall back to a fresh build for hand-made
    // traces. Either way the Plan caches it for steady-state replay.
    const sparse::LayerGeometryPtr geometry =
        entry.geometry != nullptr
            ? entry.geometry
            : sparse::make_submanifold_geometry(entry.input,
                                                entry.subconv->kernel_size());

    const float in_scale = quant::calibrate(entry.input.abs_max(), quant::kInt16Max).scale;
    const float out_scale = quant::calibrate(entry.output.abs_max(), quant::kInt16Max).scale;

    quant::QuantizedSubConv qlayer = quant::QuantizedSubConv::from_float(
        *entry.subconv, entry.bn, entry.relu, in_scale, out_scale, entry.name);
    quant::QSparseTensor qinput =
        quant::QSparseTensor::from_float(entry.input, quant::QuantParams{in_scale});
    quant::QSparseTensor gold = qlayer.forward(qinput, *geometry);

    network.layers.push_back(CompiledLayer{std::move(qlayer), std::move(qinput),
                                           std::move(gold), entry.macs, geometry});
  }
  return network;
}

CompiledLayer LayerCompiler::compile_layer(const nn::SubmanifoldConv3d& conv,
                                           const sparse::SparseTensor& input,
                                           const LayerCompileOptions& options) {
  const sparse::LayerGeometryPtr geometry =
      sparse::make_submanifold_geometry(input, conv.kernel_size());
  const std::int64_t macs = geometry->macs(conv.in_channels(), conv.out_channels());
  sparse::SparseTensor float_out = conv.forward(input, *geometry);
  if (options.bn != nullptr) options.bn->forward_inplace(float_out);
  if (options.relu) nn::relu_inplace(float_out);

  const float in_scale = quant::calibrate(input.abs_max(), quant::kInt16Max).scale;
  const float out_scale = quant::calibrate(float_out.abs_max(), quant::kInt16Max).scale;
  quant::QuantizedSubConv qlayer = quant::QuantizedSubConv::from_float(
      conv, options.bn, options.relu, in_scale, out_scale, options.name);
  quant::QSparseTensor qinput =
      quant::QSparseTensor::from_float(input, quant::QuantParams{in_scale});
  quant::QSparseTensor gold = qlayer.forward(qinput, *geometry);
  return CompiledLayer{std::move(qlayer), std::move(qinput), std::move(gold), macs, geometry};
}

}  // namespace esca::core
