// ESCA top level (paper §III.E, Fig. 9): main controller + SDMU + computing
// core + on-chip buffers + off-chip DRAM, as a timing model.
//
// A layer runs the way the hardware does: zero removing, tile encoding,
// per-tile SDMU matching, the MAC array draining the match stream at
// cycles_per_match per match. Simulated time depends only on the coordinate
// set and the layer's shape, never on activation values, so no activations
// are read: layer outputs come from sparse::ComputeEngine (runtime::Backend).
//
// tile_geometry() does what depends on the geometry alone, and checks that
// the SDMU's match stream is exactly the geometry's rulebook (each match a
// rule, none repeated, none missing), throwing esca::InternalError otherwise
// — the simulator's functional contract. run_layer() adds what depends on
// the layer. Layers that share a geometry share one TiledGeometry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "core/encoding.hpp"
#include "core/sdmu.hpp"
#include "core/zero_removing.hpp"
#include "quant/qconv.hpp"
#include "sim/energy.hpp"
#include "sim/mem/global_buffer.hpp"
#include "sim/mem/traffic_model.hpp"
#include "sparse/geometry.hpp"

namespace esca::core {

struct LayerRunStats {
  std::string layer_name;
  int in_channels{0};
  int out_channels{0};
  std::int64_t sites{0};

  ZeroRemovingStats zero_removing;
  EncodingStats encoding;
  SdmuStats sdmu;  ///< aggregated over tiles (cycles include CC drain)

  std::int64_t cc_cycles{0};   ///< array-occupied cycles (matches x blocks)
  std::int64_t mac_ops{0};     ///< effective MACs
  std::int64_t total_cycles{0};

  std::int64_t dram_bytes_in{0};
  std::int64_t dram_bytes_out{0};
  std::int64_t buffer_spills{0};  ///< tiles whose working set exceeded a buffer

  /// Memory-hierarchy accounting (sim/mem): per-class DRAM traffic with
  /// tile-granular bursts, SRAM<->PE bytes, and the banked-buffer
  /// bank-conflict simulation of this layer's real access stream.
  sim::mem::LayerTraffic traffic;
  sim::mem::BufferSimStats buffer_sim;
  /// Inputs the closed form consumed — kept so reports (and tests) can
  /// reproduce `traffic` exactly from the stats alone.
  sim::mem::LayerTrafficInput traffic_input;

  double compute_seconds{0.0};
  double dram_seconds{0.0};
  double total_seconds{0.0};
  double effective_gops{0.0};  ///< 2 * mac_ops / total_seconds
  bool memory_bound{false};    ///< roofline verdict: DRAM time >= compute time

  /// MAC-array utilization: mac_ops / (parallelism * total_cycles).
  double array_utilization(int parallelism) const;
  /// "memory" / "compute" (the layer_report_table verdict column).
  const char* bound_verdict() const { return memory_bound ? "memory" : "compute"; }
};

/// Aggregated memory-system counters over a set of layers — the shape
/// FrameReport/RunReport and serve telemetry surface. The SDMU FIFO stall
/// counters (sim::Fifo statistics) ride along so callers no longer need to
/// dig through per-layer SdmuStats.
struct MemorySummary {
  std::int64_t dram_bytes_in{0};
  std::int64_t dram_bytes_out{0};
  std::int64_t dram_bursts{0};
  std::int64_t sram_read_bytes{0};
  std::int64_t sram_write_bytes{0};
  std::int64_t bank_conflict_stalls{0};
  std::int64_t port_stalls{0};
  std::size_t buffer_fifo_high_water{0};  ///< max over layers
  std::int64_t sdmu_scan_stalls{0};
  std::int64_t sdmu_fetch_stalls{0};
  std::size_t sdmu_fifo_high_water{0};  ///< max over layers
  int memory_bound_layers{0};
  int compute_bound_layers{0};

  void add(const LayerRunStats& layer);
  void merge(const MemorySummary& other);
};

/// What one Sub-Conv geometry becomes under an ArchConfig, shared by every
/// layer that runs on it: see Accelerator::tile_geometry.
struct TiledGeometry {
  std::int64_t sites{0};
  ZeroRemovingStats zero_removing;
  EncodingStats encoding;
  std::vector<EncodedTile> tiles;
  /// The match stream's replay through the banked buffer (all tiles).
  sim::mem::BufferSimStats buffer_sim;

  /// The SDMU timing of every tile at one cycles-per-match value.
  struct SdmuTiming {
    int cycles_per_match{1};
    SdmuStats stats;
    int layers{0};  ///< layer runs that took it
  };
  std::vector<SdmuTiming> timings;
};

/// Execution options for one layer invocation.
struct RunOptions {
  /// Weights already reside in the on-chip weight buffer (steady-state /
  /// batch execution): no weight DRAM transfer is charged.
  bool weights_resident{false};
};

class Accelerator {
 public:
  explicit Accelerator(ArchConfig config);

  const ArchConfig& config() const { return config_; }

  /// Zero removing, tile encoding, and one SDMU run at `cycles_per_match`:
  /// its match stream, which no timing parameter changes, is checked against
  /// the rulebook and replayed through the banked buffer, and its timing is
  /// kept. Throws esca::InvalidArgument unless the geometry is kSubmanifold
  /// with the architecture's kernel.
  TiledGeometry tile_geometry(const sparse::LayerGeometry& geometry, int cycles_per_match);

  /// Simulate one Sub-Conv layer over its tiled geometry: the SDMU timing at
  /// the layer's cycles per match (simulated once per `tiled` and value),
  /// then closed-form spills, traffic and energy. `layer` supplies only the
  /// shape: channels, kernel and weight bytes. Throws esca::InvalidArgument
  /// unless the layer is kSubmanifold with the architecture's kernel.
  LayerRunStats run_layer(const quant::QuantizedConv& layer, TiledGeometry& tiled,
                          const RunOptions& options = {});

  /// Tile-then-run, for single-layer callers.
  LayerRunStats run_layer(const quant::QuantizedConv& layer,
                          const sparse::LayerGeometry& geometry, const RunOptions& options = {});

  /// Energy accumulated across every run_layer() call (power-model input).
  const sim::EnergyMeter& energy() const { return energy_; }
  sim::EnergyMeter& energy() { return energy_; }

 private:
  ArchConfig config_;
  Sdmu sdmu_;
  sim::mem::MemoryTrafficModel traffic_;
  sim::mem::GlobalBuffer buffer_;
  sim::EnergyMeter energy_;
  std::vector<sim::mem::BufferAccess> access_scratch_;  ///< reused per tile
  std::vector<std::int32_t> rule_scratch_;  ///< match-check table, reused per geometry
};

/// Sum a set of per-layer stats into network totals.
struct NetworkRunStats {
  std::vector<LayerRunStats> layers;

  std::int64_t total_cycles() const;
  std::int64_t total_mac_ops() const;
  double total_seconds() const;
  double effective_gops() const;
  MemorySummary memory_summary() const;
};

}  // namespace esca::core
