#include "nn/unet.hpp"

#include "common/check.hpp"
#include "common/strings.hpp"

namespace esca::nn {

SSUNet::SSUNet(SSUNetConfig config, std::uint64_t seed) : config_(config) {
  ESCA_REQUIRE(config.levels >= 1, "need at least one level");
  ESCA_REQUIRE(config.reps_per_level >= 1, "need at least one block per level");
  ESCA_REQUIRE(config.base_planes >= 1, "base_planes must be positive");
  ESCA_REQUIRE(config.kernel_size % 2 == 1, "Sub-Conv kernel must be odd");

  Rng rng(seed);

  stem_ = make_block(config.in_channels, planes_at(0), rng);

  levels_.resize(static_cast<std::size_t>(config.levels));
  for (int l = 0; l < config.levels; ++l) {
    Level& level = levels_[static_cast<std::size_t>(l)];
    const int planes = planes_at(l);

    for (int r = 0; r < config.reps_per_level; ++r) {
      level.encoder_blocks.push_back(make_block(planes, planes, rng));
    }

    if (l + 1 < config.levels) {
      const int next = planes_at(l + 1);
      level.down = std::make_unique<SparseConv3d>(sparse::GeometryKind::kDownsample, planes,
                                                  next, /*kernel=*/2, /*stride=*/2);
      level.down->init_kaiming(rng);
      level.up = std::make_unique<SparseConv3d>(sparse::GeometryKind::kInverse, next, planes,
                                                /*kernel=*/2, /*stride=*/2);
      level.up->init_kaiming(rng);

      // Decoder: first block consumes the skip concat (2*planes), the rest
      // stay at `planes`.
      for (int r = 0; r < config.reps_per_level; ++r) {
        level.decoder_blocks.push_back(make_block(r == 0 ? 2 * planes : planes, planes, rng));
      }
    }
  }

  head_ = std::make_unique<Linear>(planes_at(0), config.num_classes);
  head_->init_kaiming(rng);
}

SSUNet::Block SSUNet::make_block(int in_channels, int out_channels, Rng& rng) const {
  Block b;
  b.conv = std::make_unique<SparseConv3d>(sparse::GeometryKind::kSubmanifold, in_channels,
                                          out_channels, config_.kernel_size);
  b.conv->init_kaiming(rng);
  b.bn = std::make_unique<BatchNorm>(out_channels);
  b.bn->randomize(rng);
  return b;
}

sparse::SparseTensor SSUNet::run_conv(const SparseConv3d& conv, const BatchNorm* bn,
                                      const sparse::SparseTensor& x,
                                      const sparse::LayerGeometryPtr& geometry,
                                      std::string name, std::vector<TraceEntry>* trace) const {
  sparse::SparseTensor y = conv.forward(x, *geometry);
  if (bn != nullptr) {
    bn->forward_inplace(y);
    relu_inplace(y);
  }
  if (trace != nullptr) {
    trace->push_back(TraceEntry{std::move(name), conv.in_channels(), conv.out_channels(),
                                geometry->macs(conv.in_channels(), conv.out_channels()), x, y,
                                &conv, bn, /*relu=*/bn != nullptr, geometry});
  }
  return y;
}

sparse::SparseTensor SSUNet::forward(const sparse::SparseTensor& input,
                                     std::vector<TraceEntry>* trace) const {
  ESCA_REQUIRE(input.channels() == config_.in_channels,
               "input channels " << input.channels() << " != model in_channels "
                                 << config_.in_channels);

  // One submanifold geometry per scale: Sub-Conv never moves the active
  // set, so the stem, every encoder block, and (after the inverse conv
  // restores the scale) every decoder block at a level share one build.
  sparse::LayerGeometryPtr scale_geo =
      sparse::make_submanifold_geometry(input, config_.kernel_size);

  sparse::SparseTensor x =
      run_conv(*stem_.conv, stem_.bn.get(), input, scale_geo, "stem", trace);

  // Encoder: keep each level's output (and geometries) for the skip path —
  // the decoder replays the Sub-Conv geometry and derives the inverse-conv
  // geometry by transposing the recorded downsample geometry.
  std::vector<sparse::SparseTensor> skips;
  std::vector<sparse::LayerGeometryPtr> skip_geos;
  std::vector<sparse::LayerGeometryPtr> down_geos;
  for (int l = 0; l < config_.levels; ++l) {
    const Level& level = levels_[static_cast<std::size_t>(l)];
    for (std::size_t r = 0; r < level.encoder_blocks.size(); ++r) {
      const Block& b = level.encoder_blocks[r];
      x = run_conv(*b.conv, b.bn.get(), x, scale_geo,
                   str::format("enc%d.block%d", l, static_cast<int>(r)), trace);
    }
    skips.push_back(x);
    skip_geos.push_back(scale_geo);
    if (level.down) {
      const sparse::LayerGeometryPtr down_geo =
          sparse::make_downsample_geometry(x, level.down->kernel_size(), level.down->stride());
      x = run_conv(*level.down, nullptr, x, down_geo, str::format("down%d", l), trace);
      down_geos.push_back(down_geo);
      scale_geo = sparse::make_submanifold_geometry(x, config_.kernel_size);
    }
  }

  // Decoder: the inverse conv restores the encoder scale (its geometry
  // carries the skip's sites), so its blocks replay the encoder geometry
  // recorded above; the inverse-conv geometry is the transpose of the
  // recorded downsample geometry (no extra build).
  for (int l = config_.levels - 2; l >= 0; --l) {
    const Level& level = levels_[static_cast<std::size_t>(l)];
    const sparse::SparseTensor& skip = skips[static_cast<std::size_t>(l)];
    const sparse::LayerGeometryPtr up_geo =
        sparse::make_transposed_inverse_geometry(*down_geos[static_cast<std::size_t>(l)]);
    x = concat_channels(run_conv(*level.up, nullptr, x, up_geo, str::format("up%d", l), trace),
                        skip);
    scale_geo = skip_geos[static_cast<std::size_t>(l)];
    for (std::size_t r = 0; r < level.decoder_blocks.size(); ++r) {
      const Block& b = level.decoder_blocks[r];
      x = run_conv(*b.conv, b.bn.get(), x, scale_geo,
                   str::format("dec%d.block%d", l, static_cast<int>(r)), trace);
    }
  }

  // Head.
  sparse::SparseTensor logits = head_->forward(x);
  if (trace != nullptr) {
    trace->push_back(TraceEntry{"head", head_->in_channels(), head_->out_channels(),
                                head_->macs(x), x, logits});
  }
  return logits;
}

std::int64_t SSUNet::total_macs(const sparse::SparseTensor& input) const {
  std::vector<TraceEntry> trace;
  (void)forward(input, &trace);
  std::int64_t total = 0;
  for (const auto& e : trace) total += e.macs;
  return total;
}

std::int64_t SSUNet::parameter_count() const {
  std::int64_t n = 0;
  auto add_conv = [&n](const std::unique_ptr<SparseConv3d>& c) {
    if (!c) return;
    n += static_cast<std::int64_t>(c->weights().size());
    if (c->has_bias()) n += static_cast<std::int64_t>(c->bias().size());
  };
  auto add_block = [&](const Block& b) {
    add_conv(b.conv);
    n += 4LL * b.bn->channels();
  };
  add_block(stem_);
  for (const Level& level : levels_) {
    for (const Block& b : level.encoder_blocks) add_block(b);
    add_conv(level.down);
    add_conv(level.up);
    for (const Block& b : level.decoder_blocks) add_block(b);
  }
  n += static_cast<std::int64_t>(head_->weights().size()) + head_->out_channels();
  return n;
}

std::vector<std::size_t> subconv_entries(const std::vector<TraceEntry>& trace) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const SparseConv3d* conv = trace[i].conv;
    if (conv != nullptr && conv->kind() == sparse::GeometryKind::kSubmanifold) idx.push_back(i);
  }
  return idx;
}

}  // namespace esca::nn
