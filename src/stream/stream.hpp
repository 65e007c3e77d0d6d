// Umbrella header for the esca::stream subsystem — incremental
// frame-to-frame geometry for streaming point cloud sequences:
//
//   FrameDelta          — Morton-merge diff of two voxelized frames
//   IncrementalGeometry — patch the previous frame's LayerGeometry
//                         (bit-identical to a cold rebuild) with a churn
//                         fallback (rebuild_fraction)
//   SequenceSession     — per-scale incremental state over a
//                         runtime::Session; served sticky by serve::Server
//
// See incremental_geometry.hpp for the patching algorithm.
#pragma once

#include "stream/frame_delta.hpp"          // IWYU pragma: export
#include "stream/incremental_geometry.hpp" // IWYU pragma: export
#include "stream/sequence_session.hpp"     // IWYU pragma: export
