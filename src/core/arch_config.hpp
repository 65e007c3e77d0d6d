// ESCA architecture parameters (paper §III.E, §IV.A).
//
// Defaults reproduce the published configuration: 3x3x3 kernels, 8x8x8
// zero-removing tiles, 16x16 IC/OC compute parallelism, K^2 = 9 decoder
// columns and FIFOs, 270 MHz on a ZCU102.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sim/dram.hpp"
#include "sim/mem/traffic_model.hpp"

namespace esca::core {

struct ArchConfig {
  // --- matching / compute geometry -----------------------------------------
  int kernel_size{3};        ///< K (Sub-Conv kernel, odd)
  Coord3 tile_size{8, 8, 8};  ///< zero-removing tile (N x M x L)
  int ic_parallel{16};       ///< n+1: input channels per cycle
  int oc_parallel{16};       ///< m+1: output channels (computing units)

  // --- SDMU -----------------------------------------------------------------
  int fifo_depth{16};            ///< per-column match FIFO entries
  int mask_read_cycles{3};       ///< cycles to read one SRF's column masks (=K)
  int pipeline_fill_cycles{4};   ///< read->judge->generate->fetch latency

  // --- clocking / memory ----------------------------------------------------
  double frequency_hz{270e6};
  std::int64_t activation_buffer_bytes{256 * 1024};
  std::int64_t weight_buffer_bytes{384 * 1024};
  std::int64_t mask_buffer_bytes{64 * 1024};
  std::int64_t output_buffer_bytes{256 * 1024};
  sim::DramConfig dram{};
  /// Overlap DRAM transfers with compute (double buffering). The published
  /// design streams tiles without overlap, so the default is off.
  bool overlap_dram{false};
  /// Memory-hierarchy model: dataflow schedule + banked global-buffer
  /// geometry (sim/mem). The default weight-stationary schedule reproduces
  /// the published design's traffic when every buffer fits.
  sim::mem::MemConfig mem{};

  // --- derived --------------------------------------------------------------
  int kernel_radius() const { return kernel_size / 2; }
  int k2() const { return kernel_size * kernel_size; }  ///< decoder columns
  int k3() const { return k2() * kernel_size; }
  int compute_parallelism() const { return ic_parallel * oc_parallel; }
  /// Cycles the (ic_parallel x oc_parallel) MAC array spends on one match
  /// of a Cin -> Cout layer (§III.D, Fig. 8(a)): one array pass per
  /// (IC block, OC block), i.e. ceil(Cin / icP) * ceil(Cout / ocP).
  int cycles_per_match(int in_channels, int out_channels) const;

  /// Buffer capacities + DRAM + mem knobs packaged for the traffic model.
  sim::mem::TrafficModelConfig traffic_model_config() const;
  /// Activation global-buffer geometry with depth derived from
  /// activation_buffer_bytes when unset.
  sim::mem::GlobalBufferConfig buffer_geometry() const;

  /// Throws esca::InvalidArgument when parameters are inconsistent.
  void validate() const;
};

}  // namespace esca::core
