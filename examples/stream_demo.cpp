// Streaming demo: a moving LiDAR-like sensor over esca::stream + esca::serve.
//
// A simulated sensor re-observes a ShapeNet-like object at stream rate with
// slight ego-motion and per-frame measurement churn. A SequenceSession
// carries per-scale incremental geometry across the frames — each frame
// patches the previous frame's rulebooks instead of rebuilding them — and
// the same sequence is then replayed through a serve::Server as a sticky
// stream, showing that one worker owns the stream's state end to end.
//
// Build & run:  ./build/examples/stream_demo [frames=8] [resolution=96]
//               [scales=2] [workers=3]
#include <cstdio>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "datasets/sequence.hpp"
#include "datasets/shapenet_like.hpp"
#include "nn/sparse_conv.hpp"
#include "serve/serve.hpp"
#include "sparse/sparse_tensor.hpp"
#include "stream/stream.hpp"
#include "voxel/voxelizer.hpp"

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): example main

}  // namespace

int main(int argc, char** argv) {
  const Config args = Config::from_args(argc, argv);
  const int frames = static_cast<int>(args.get_int("frames", 8));
  const int resolution = static_cast<int>(args.get_int("resolution", 96));
  const int scales = static_cast<int>(args.get_int("scales", 2));
  const int workers = static_cast<int>(args.get_int("workers", 3));

  // The sensor: one object, slow yaw + drift, 4 % of the points re-measured
  // per frame (≈ 80 % voxel overlap frame to frame at this resolution).
  datasets::SequenceConfig seq;
  seq.frames = frames;
  seq.yaw_per_frame = 0.004F;
  seq.translation_per_frame = {0.0015F, 0.0F, 0.0F};
  seq.resample_fraction = 0.04F;
  const datasets::ShapeNetLikeDataset objects({}, 20221014);
  const datasets::SequenceDataset sensor(objects.sample(0), seq, 7);

  std::vector<sparse::SparseTensor> tensors;
  tensors.reserve(static_cast<std::size_t>(frames));
  for (int t = 0; t < frames; ++t) {
    tensors.push_back(sparse::SparseTensor::from_voxel_grid(
        voxel::voxelize(sensor.frame(t), {.resolution = resolution}), 1));
  }
  std::printf("sensor stream: %d frames at %d^3, first frame %zu sites\n\n", frames, resolution,
              tensors.front().size());

  // A single-layer Plan calibrated on frame 0 (steady-state replay).
  Rng rng(99);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 1, 8, 3);
  conv.init_kaiming(rng);
  runtime::Engine engine;
  const runtime::PlanPtr plan = runtime::share_plan(
      engine.compile_layer(conv, tensors.front(), {.relu = true, .name = "stream"}));

  // Part 1 — a local SequenceSession: per-frame incremental geometry.
  {
    runtime::Session session = engine.open_session(plan);
    stream::SequenceSession stream(session, {.kernel_size = 3, .scales = scales});
    std::printf("frame  sites    added  removed  patched-scales  geometry\n");
    for (int t = 0; t < frames; ++t) {
      const stream::SequenceFrameResult r = stream.advance(tensors[static_cast<std::size_t>(t)]);
      const stream::ScaleUpdate& s0 = r.stats.scales.front();
      std::printf("%5d  %7zu  %5zu  %7zu  %7zu/%zu        %6.2f ms\n", t, s0.sites, s0.added,
                  s0.removed, r.stats.patched_scales(), r.stats.scales.size(),
                  r.stats.geometry_seconds * 1e3);
    }
    std::printf("\nlocal stream: %llu scale patches, %llu cold builds, weights resident: %s\n\n",
                static_cast<unsigned long long>(stream.patches()),
                static_cast<unsigned long long>(stream.rebuilds()),
                session.weights_resident() ? "yes" : "no");
  }

  // Part 2 — the same stream served sticky: every request of the stream id
  // lands on one worker, whose SequenceSession state persists across
  // requests (frame deltas stay small even though requests are separate).
  serve::ServerConfig cfg;
  cfg.workers = workers;
  cfg.sequence.scales = scales;
  serve::Server server(cfg, plan);
  serve::Client client = server.client();
  constexpr std::uint64_t kStreamId = 42;
  for (int t = 0; t < frames; ++t) {
    const serve::Response r =
        client.submit_sequence(kStreamId, {tensors[static_cast<std::size_t>(t)]}).get();
    if (!r.ok()) {
      std::printf("request %d: %s\n", t, serve::to_string(r.status));
      continue;
    }
    const stream::SequenceFrameStats& stats = r.sequence.front();
    std::printf("served frame %d on worker %d: %zu/%zu scales patched, %.2f ms geometry\n", t,
                r.worker_id, stats.patched_scales(), stats.scales.size(),
                stats.geometry_seconds * 1e3);
  }
  std::printf("\nstream %llu pinned to worker %d\n",
              static_cast<unsigned long long>(kStreamId), server.stream_owner(kStreamId));
  std::printf("%s\n", server.telemetry_snapshot().table("Serving telemetry").c_str());
  return 0;
}
