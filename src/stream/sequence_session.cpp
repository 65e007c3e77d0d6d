#include "stream/sequence_session.hpp"

#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "obs/trace.hpp"
#include "voxel/morton.hpp"

namespace esca::stream {

namespace {

/// The stride-2 coarse frame of `fine`: fine site p falls in cell p / 2 per
/// axis, whose Morton code is p's code >> 3, so the fine Morton run yields
/// the cells sorted with equal codes adjacent.
sparse::SparseTensor downsampled(const sparse::SparseTensor& fine) {
  std::vector<Coord3> coords;
  std::uint64_t last = 0;
  for (const sparse::CoordIndex::Entry& e : fine.index().entries()) {
    const std::uint64_t code = e.code >> 3;
    if (!coords.empty() && code == last) continue;
    coords.push_back(voxel::morton_decode(code));
    last = code;
  }
  sparse::CoordIndex index;
  ESCA_CHECK(index.rebuild(coords), "duplicate coarse cell");
  const Coord3 extent = fine.spatial_extent();
  return sparse::SparseTensor::from_coords(
      {(extent.x + 1) / 2, (extent.y + 1) / 2, (extent.z + 1) / 2}, 1, std::move(coords),
      std::move(index));
}

}  // namespace

SequenceSession::SequenceSession(runtime::Session& session, SequenceSessionConfig config)
    : session_(&session), config_(config) {
  ESCA_REQUIRE(config_.scales >= 1, "sequence session needs >= 1 scale, got " << config_.scales);
  IncrementalGeometryConfig per_scale;
  per_scale.kernel_size = config_.kernel_size;
  per_scale.geometry = config_.geometry;
  per_scale.rebuild_fraction = config_.rebuild_fraction;
  scales_.reserve(static_cast<std::size_t>(config_.scales));
  for (int s = 0; s < config_.scales; ++s) scales_.emplace_back(per_scale);
}

SequenceFrameResult SequenceSession::advance(const sparse::SparseTensor& frame,
                                             std::string frame_id,
                                             const runtime::RunOptions& options) {
  if (frame_id.empty()) frame_id = str::format("stream%zu", frames_);

  // Degraded mode: dropping the carried state up front forces every scale
  // down the cold-build path this frame (nothing to diff against).
  if (forced_rebuild_) reset();

  obs::Span advance_span("stream.advance");
  advance_span.arg("frame", frames_);
  advance_span.arg("scales", scales_.size());

  SequenceFrameResult result;
  result.stats.scales.reserve(scales_.size());
  result.geometries.reserve(scales_.size());

  const auto t0 = std::chrono::steady_clock::now();
  sparse::SparseTensor cur = frame.zeros_like(1);
  for (std::size_t s = 0; s < scales_.size(); ++s) {
    obs::Span scale_span("stream.scale");
    scale_span.arg("scale", s);
    const GeometryUpdate upd = scales_[s].update(cur);
    scale_span.arg("patched", static_cast<std::int64_t>(upd.patched));
    scale_span.arg("shards", upd.shards);
    result.stats.scales.push_back(
        ScaleUpdate{upd.sites, upd.added, upd.removed, upd.patched, upd.seconds, upd.shards});
    result.geometries.push_back(upd.geometry);

    if (s + 1 < scales_.size()) cur = downsampled(cur);
  }
  result.stats.geometry_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  result.run = session_->submit(runtime::FrameBatch::single(std::move(frame_id)), options);
  ++frames_;
  return result;
}

std::uint64_t SequenceSession::patches() const {
  std::uint64_t n = 0;
  for (const IncrementalGeometry& s : scales_) n += s.patches();
  return n;
}

std::uint64_t SequenceSession::rebuilds() const {
  std::uint64_t n = 0;
  for (const IncrementalGeometry& s : scales_) n += s.rebuilds();
  return n;
}

void SequenceSession::reset() {
  for (IncrementalGeometry& s : scales_) s.reset();
}

}  // namespace esca::stream
