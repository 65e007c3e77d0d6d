// Dataflow schedules for the on-chip memory hierarchy.
//
// A dataflow fixes the tiling loop order of one Sub-Conv layer and thereby
// which tensor stays resident in the global buffer while the others stream:
//
//   weight-stationary  : weights load once (chunked when they exceed the
//                        weight buffer); activations + masks re-stream once
//                        per weight chunk. This is the published ESCA
//                        schedule — the weight buffer is sized to hold a
//                        whole layer, so the common case is one pass.
//   output-stationary  : output tiles accumulate on chip and are written
//                        once; per output tile the full weight tensor
//                        streams through the buffer, so weights that do not
//                        fit on chip are re-read once PER TILE.
//
// The schedule only determines traffic multiplicities; the byte accounting
// itself lives in MemoryTrafficModel.
#pragma once

namespace esca::sim::mem {

enum class Dataflow {
  kWeightStationary,
  kOutputStationary,
};

/// "ws" / "os" (the bench/CLI spelling).
const char* to_string(Dataflow dataflow);

}  // namespace esca::sim::mem
