// Every sparse layer runs through one forward that takes its LayerGeometry.
// These tests pin that each layer rejects a geometry it cannot run — wrong
// kind, kernel, stride, or built on a different input — instead of reading
// its input through rules that index another tensor.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/sparse_conv.hpp"
#include "quant/qconv.hpp"
#include "sparse/testing/rulebook_oracle.hpp"
#include "test_util.hpp"

namespace esca {
namespace {

using sparse::GeometryKind;
using sparse::LayerGeometry;

/// One layer under test and the geometries it is offered.
struct LayerCase {
  std::string name;
  LayerGeometry good;         ///< built on the layer's input
  LayerGeometry other_input;  ///< same kind/kernel/stride, built on a larger tensor
  GeometryKind wrong_kind;
  std::function<void(const LayerGeometry&)> run;
};

/// One way a geometry can fail to fit its layer.
struct Mismatch {
  std::string name;
  std::function<LayerGeometry(const LayerCase&)> make;
};

TEST(LayerGeometryTest, EveryLayerRejectsAGeometryItCannotRun) {
  Rng rng(1401);
  const sparse::SparseTensor x = test::clustered_tensor({32, 32, 32}, 2, rng, 3, 24);
  const sparse::SparseTensor big = test::random_sparse_tensor({32, 32, 32}, 2, 0.1, rng);
  ASSERT_LT(x.size(), big.size());

  nn::SparseConv3d sub(GeometryKind::kSubmanifold, 2, 3, 3);
  sub.init_kaiming(rng);
  nn::SparseConv3d down(GeometryKind::kDownsample, 2, 3, 2, 2);
  down.init_kaiming(rng);
  nn::SparseConv3d up(GeometryKind::kInverse, 3, 2, 2, 2);
  up.init_kaiming(rng);
  const auto quantized = [](const nn::SparseConv3d& conv) {
    return quant::QuantizedConv::from_float(conv, nullptr, false, 0.01F, 0.01F, "q");
  };
  const quant::QuantizedConv qsub = quantized(sub);
  const quant::QuantizedConv qdown = quantized(down);
  const quant::QuantizedConv qup = quantized(up);
  const quant::QSparseTensor qx = quant::QSparseTensor::from_float(x, quant::QuantParams{0.01F});

  const LayerGeometry x_down = sparse::build_downsample_geometry(x, 2, 2);
  const LayerGeometry big_down = sparse::build_downsample_geometry(big, 2, 2);
  const sparse::SparseTensor coarse = down.forward(x, x_down);
  const quant::QSparseTensor qcoarse =
      quant::QSparseTensor::from_float(coarse, quant::QuantParams{0.01F});
  // The other-input inverse geometry restores x's own sites, so only its
  // input domain (big's coarse cells) differs from the good one.
  const LayerGeometry x_up = sparse::transpose_downsample_geometry(x_down);
  const LayerGeometry big_up = sparse::oracle::inverse_geometry(big_down.zero_output(1), x, 2, 2);

  std::vector<LayerCase> layers;
  layers.push_back({"Sub-Conv", sparse::build_submanifold_geometry(x, 3),
                    sparse::build_submanifold_geometry(big, 3), GeometryKind::kDownsample,
                    [&](const LayerGeometry& g) { (void)sub.forward(x, g); }});
  layers.push_back({"strided conv", x_down, big_down, GeometryKind::kSubmanifold,
                    [&](const LayerGeometry& g) { (void)down.forward(x, g); }});
  layers.push_back({"inverse conv", x_up, big_up, GeometryKind::kDownsample,
                    [&](const LayerGeometry& g) { (void)up.forward(coarse, g); }});
  layers.push_back({"quantized Sub-Conv", sparse::build_submanifold_geometry(x, 3),
                    sparse::build_submanifold_geometry(big, 3), GeometryKind::kDownsample,
                    [&](const LayerGeometry& g) { (void)qsub.forward(qx, g); }});
  layers.push_back({"quantized strided conv", x_down, big_down, GeometryKind::kSubmanifold,
                    [&](const LayerGeometry& g) { (void)qdown.forward(qx, g); }});
  layers.push_back({"quantized inverse conv", x_up, big_up, GeometryKind::kDownsample,
                    [&](const LayerGeometry& g) { (void)qup.forward(qcoarse, g); }});

  const std::vector<Mismatch> mismatches = {
      {"kind",
       [](const LayerCase& c) {
         LayerGeometry g = c.good;
         g.kind = c.wrong_kind;
         return g;
       }},
      {"kernel",
       [](const LayerCase& c) {
         LayerGeometry g = c.good;
         g.kernel_size += 2;
         return g;
       }},
      {"stride",
       [](const LayerCase& c) {
         LayerGeometry g = c.good;
         g.stride += 1;
         return g;
       }},
      {"input domain", [](const LayerCase& c) { return c.other_input; }},
  };

  for (const LayerCase& layer : layers) {
    SCOPED_TRACE(layer.name);
    EXPECT_NO_THROW(layer.run(layer.good));
    for (const Mismatch& m : mismatches) {
      SCOPED_TRACE(m.name);
      EXPECT_THROW(layer.run(m.make(layer)), InvalidArgument);
    }
  }
}

}  // namespace
}  // namespace esca
