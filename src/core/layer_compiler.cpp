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
  for (const std::size_t i : nn::subconv_entries(trace)) {
    const nn::TraceEntry& entry = trace[i];
    // The trace carries the geometry each layer executed with (one build
    // per scale); the Plan caches it for steady-state replay.
    ESCA_REQUIRE(entry.geometry != nullptr,
                 "trace entry '" << entry.name << "' carries no geometry");

    const float in_scale = quant::calibrate(entry.input.abs_max(), quant::kInt16Max).scale;
    const float out_scale = quant::calibrate(entry.output.abs_max(), quant::kInt16Max).scale;

    quant::QuantizedConv qlayer = quant::QuantizedConv::from_float(
        *entry.conv, entry.bn, entry.relu, in_scale, out_scale, entry.name);
    quant::QSparseTensor qinput =
        quant::QSparseTensor::from_float(entry.input, quant::QuantParams{in_scale});
    quant::QSparseTensor gold = qlayer.forward(qinput, *entry.geometry);

    network.layers.push_back(CompiledLayer{std::move(qlayer), std::move(qinput),
                                           std::move(gold), entry.macs, entry.geometry});
  }
  return network;
}

CompiledLayer LayerCompiler::compile_layer(const nn::SparseConv3d& conv,
                                           const sparse::SparseTensor& input,
                                           const LayerCompileOptions& options) {
  const sparse::LayerGeometryPtr geometry =
      sparse::make_submanifold_geometry(input, conv.kernel_size());
  sparse::SparseTensor output = conv.forward(input, *geometry);
  if (options.bn != nullptr) options.bn->forward_inplace(output);
  if (options.relu) nn::relu_inplace(output);
  std::vector<nn::TraceEntry> trace;
  trace.push_back(nn::TraceEntry{options.name, conv.in_channels(), conv.out_channels(),
                                 geometry->macs(conv.in_channels(), conv.out_channels()), input,
                                 std::move(output), &conv, options.bn, options.relu, geometry});
  return std::move(compile(trace).layers.front());
}

}  // namespace esca::core
