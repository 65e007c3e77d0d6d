// Sparse max pooling — the downsampling alternative to strided convolution
// used by SSCN-family networks.
//
// Output sites follow the same rule as strided sparse convolution (a site
// exists where any input site falls in its window); each output channel is
// the max over the window's *active* inputs (implicit zeros do not
// participate, matching SparseConvNet semantics).
#pragma once

#include "sparse/geometry.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::nn {

class MaxPool3d {
 public:
  MaxPool3d(int kernel_size, int stride);

  int kernel_size() const { return kernel_size_; }
  int stride() const { return stride_; }

  /// Run over `geometry`, the downsample geometry of `input`'s sites at
  /// this kernel and stride (pooling shares the strided-conv output rule,
  /// so the same LayerGeometry and its output sites drive both).
  sparse::SparseTensor forward(const sparse::SparseTensor& input,
                               const sparse::LayerGeometry& geometry) const;

 private:
  int kernel_size_;
  int stride_;
};

}  // namespace esca::nn
