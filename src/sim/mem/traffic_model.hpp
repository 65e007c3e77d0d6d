// Per-layer DRAM <-> SRAM <-> PE traffic accounting.
//
// The model replaces the "one monolithic burst per tensor" first-order DRAM
// charge with tile-granular bursts over four traffic classes — weights,
// input activations, index masks, output activations — whose multiplicities
// come from the configured Dataflow schedule:
//
//   weight-stationary : weights move once (in ceil(W / weight_buffer)
//                       chunks); activations + masks re-stream once per
//                       chunk; outputs are written once, one burst per tile.
//   output-stationary : activations + masks stream once; outputs are
//                       written once; weights that fit the buffer move
//                       once, weights that do not are re-read per tile.
//
// Tiles whose working set overflows the activation (mask) buffer stream
// that working set twice per pass — the caller reports those overflow sites
// and bytes (the cycle simulator measures them per encoded tile, the
// closed-form caller computes them the same way), which keeps this model an
// exact closed form over its inputs: the ESCA backend's per-layer DRAM
// bytes are REQUIRED to match layer_traffic() bit for bit (tests enforce
// it).
//
// SRAM-side accounting follows the PE array: one activation word and one
// weight block read per match, mask bits read once per pass, buffer fills
// and output writebacks on the write side.
#pragma once

#include <cstdint>

#include "sim/dram.hpp"
#include "sim/mem/dataflow.hpp"
#include "sim/mem/global_buffer.hpp"

namespace esca::sim::mem {

/// Memory-system knobs (lives inside core::ArchConfig as `mem`).
struct MemConfig {
  Dataflow dataflow{Dataflow::kWeightStationary};
  /// Activation global-buffer geometry; depth 0 derives from the activation
  /// buffer byte capacity.
  GlobalBufferConfig buffer{};
  /// Run the cycle-level bank-conflict simulation inside the ESCA backend
  /// (adds per-layer stall counters; traffic bytes are unaffected).
  bool simulate_buffer{true};

  void validate() const { buffer.resolved(1).validate(); }
};

/// Buffer capacities + DRAM model the traffic model prices against.
/// core::ArchConfig::traffic_model_config() builds one.
struct TrafficModelConfig {
  MemConfig mem{};
  DramConfig dram{};
  std::int64_t weight_buffer_bytes{384 * 1024};
  std::int64_t activation_buffer_bytes{256 * 1024};
  std::int64_t mask_buffer_bytes{64 * 1024};
};

/// Everything the closed form consumes for one layer. The cycle simulator
/// fills this from its zero-removing/encoding stats; tests rebuild it from
/// the same reported stats to prove the backend and the closed form agree.
struct LayerTrafficInput {
  std::int64_t active_tiles{0};
  std::int64_t mask_bytes{0};          ///< index masks over all active tiles
  std::int64_t stored_sites{0};        ///< activations incl. halo duplicates
  std::int64_t core_sites{0};          ///< unique output sites
  std::int64_t overflow_act_sites{0};  ///< stored sites of tiles overflowing the act buffer
  std::int64_t overflow_mask_bytes{0}; ///< mask bytes of tiles overflowing the mask buffer
  std::int64_t matches{0};             ///< rulebook matches (SRAM/PE accounting)
  int in_channels{0};
  int out_channels{0};
  std::int64_t weight_bytes{0};
  bool weights_resident{false};
};

/// Bytes + DRAM burst count of one traffic class.
struct TensorTraffic {
  std::int64_t bytes{0};
  std::int64_t bursts{0};
};

struct LayerTraffic {
  TensorTraffic weights;  ///< DRAM -> SRAM
  TensorTraffic inputs;   ///< DRAM -> SRAM (activations incl. halo + overflow)
  TensorTraffic masks;    ///< DRAM -> SRAM
  TensorTraffic outputs;  ///< SRAM -> DRAM
  std::int64_t weight_passes{1};  ///< activation/mask stream repetitions (WS)

  std::int64_t sram_read_bytes{0};   ///< buffer -> PE array
  std::int64_t sram_write_bytes{0};  ///< fills + output writebacks

  std::int64_t dram_bytes_in() const { return weights.bytes + inputs.bytes + masks.bytes; }
  std::int64_t dram_bytes_out() const { return outputs.bytes; }
  std::int64_t dram_bursts() const {
    return weights.bursts + inputs.bursts + masks.bursts + outputs.bursts;
  }
};

class MemoryTrafficModel {
 public:
  explicit MemoryTrafficModel(TrafficModelConfig config = {});

  /// Closed-form per-class traffic of one layer under the configured
  /// dataflow. Pure function of its inputs — no simulation state.
  LayerTraffic layer_traffic(const LayerTrafficInput& input) const;

  /// Seconds to move `traffic` over DRAM: every burst pays the first-word
  /// latency, bytes stream at effective bandwidth.
  double transfer_seconds(const LayerTraffic& traffic) const;

  const TrafficModelConfig& config() const { return config_; }
  const DramModel& dram() const { return dram_; }

 private:
  TrafficModelConfig config_;
  DramModel dram_;
};

}  // namespace esca::sim::mem
