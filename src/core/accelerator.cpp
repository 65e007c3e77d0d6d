#include "core/accelerator.hpp"

#include <algorithm>
#include <span>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace esca::core {

namespace {

/// Process-wide registry counters: the sim::mem and SDMU stall totals, so
/// scrapers see the accelerator model's memory pressure without walking
/// per-run reports, and the simulator's per-geometry reuse.
struct SimCounters {
  obs::Counter& bank_conflict_stalls;
  obs::Counter& port_stalls;
  obs::Counter& sdmu_scan_stalls;
  obs::Counter& sdmu_fetch_stalls;
  obs::Counter& tiled_geometries;
  obs::Counter& sdmu_timings;
  obs::Counter& sdmu_timing_reuses;
};

const SimCounters& counters() {
  obs::Registry& registry = obs::Registry::global();
  static const SimCounters counters{
      registry.counter("esca_sim_buffer_bank_conflict_stalls_total",
                       "banked-buffer cycles the front-end blocked on a full bank FIFO"),
      registry.counter("esca_sim_buffer_port_stalls_total",
                       "bank-ready buffer requests denied a port"),
      registry.counter("esca_sim_sdmu_scan_stall_cycles_total",
                       "SDMU scan cycles blocked on a full fragment queue"),
      registry.counter("esca_sim_sdmu_fetch_stall_cycles_total",
                       "SDMU fetch cycles blocked on a full match FIFO"),
      registry.counter("esca_sim_tiled_geometries_total",
                       "Sub-Conv geometries tiled, encoded and match-checked by the simulator"),
      registry.counter("esca_sim_sdmu_timings_total",
                       "SDMU timings simulated, one per tiled geometry and cycles-per-match value"),
      registry.counter("esca_sim_sdmu_timing_reuses_total",
                       "layer runs that took an SDMU timing simulated for an earlier layer")};
  return counters;
}

/// The SDMU's functional contract, checked on every tiled geometry: its match
/// stream is exactly the geometry's rulebook — every match is a rule, no rule is
/// matched twice and none is left over. A submanifold rule is unique per
/// (out_row, weight_index), so a dense table of in_rows over the reused
/// scratch makes the check O(rules).
class RuleCheck {
 public:
  RuleCheck(const sparse::LayerGeometry& geometry, std::vector<std::int32_t>& slots)
      : slots_(slots),
        rows_(static_cast<std::int64_t>(geometry.sites.size())),
        volume_(geometry.rulebook.kernel_volume()),
        remaining_(geometry.total_rules()) {
    slots_.assign(static_cast<std::size_t>(rows_ * volume_), kNoRule);
    for (int o = 0; o < volume_; ++o) {
      for (const sparse::Rule& rule : geometry.rulebook.rules_for(o)) {
        ESCA_CHECK(rule.out_row >= 0 && rule.out_row < rows_ && rule.in_row >= 0 &&
                       rule.in_row < rows_,
                   "rule " << rule.in_row << " -> " << rule.out_row << " outside the "
                           << rows_ << " layer sites");
        slots_[slot(rule.out_row, o)] = rule.in_row;
      }
    }
  }

  void consume(const Match& m) {
    const bool in_range = m.out_row >= 0 && m.out_row < rows_ && m.weight_index >= 0 &&
                          m.weight_index < volume_;
    std::int32_t* expected = in_range ? &slots_[slot(m.out_row, m.weight_index)] : nullptr;
    ESCA_CHECK(expected != nullptr && *expected == m.in_row,
               "SDMU match " << m.in_row << " -> " << m.out_row << " at offset "
                             << m.weight_index << " is not an unmatched rulebook rule");
    *expected = kNoRule;
    --remaining_;
  }

  void finish() const {
    ESCA_CHECK(remaining_ == 0,
               "SDMU match stream and rulebook differ by " << remaining_ << " rules");
  }

 private:
  static constexpr std::int32_t kNoRule = -1;

  std::size_t slot(std::int32_t out_row, int offset) const {
    return static_cast<std::size_t>(out_row) * static_cast<std::size_t>(volume_) +
           static_cast<std::size_t>(offset);
  }

  std::vector<std::int32_t>& slots_;
  std::int64_t rows_;
  int volume_;
  std::int64_t remaining_;  ///< rules not yet matched
};

}  // namespace

double LayerRunStats::array_utilization(int parallelism) const {
  if (total_cycles <= 0 || parallelism <= 0) return 0.0;
  return static_cast<double>(mac_ops) /
         (static_cast<double>(parallelism) * static_cast<double>(total_cycles));
}

void MemorySummary::add(const LayerRunStats& layer) {
  dram_bytes_in += layer.dram_bytes_in;
  dram_bytes_out += layer.dram_bytes_out;
  dram_bursts += layer.traffic.dram_bursts();
  sram_read_bytes += layer.traffic.sram_read_bytes;
  sram_write_bytes += layer.traffic.sram_write_bytes;
  bank_conflict_stalls += layer.buffer_sim.bank_conflict_stalls;
  port_stalls += layer.buffer_sim.port_stalls;
  buffer_fifo_high_water = std::max(buffer_fifo_high_water, layer.buffer_sim.fifo_high_water);
  sdmu_scan_stalls += layer.sdmu.scan_stall_cycles;
  sdmu_fetch_stalls += layer.sdmu.fetch_stall_cycles;
  sdmu_fifo_high_water = std::max(sdmu_fifo_high_water, layer.sdmu.fifo_high_water);
  if (layer.memory_bound) {
    ++memory_bound_layers;
  } else {
    ++compute_bound_layers;
  }
}

void MemorySummary::merge(const MemorySummary& other) {
  dram_bytes_in += other.dram_bytes_in;
  dram_bytes_out += other.dram_bytes_out;
  dram_bursts += other.dram_bursts;
  sram_read_bytes += other.sram_read_bytes;
  sram_write_bytes += other.sram_write_bytes;
  bank_conflict_stalls += other.bank_conflict_stalls;
  port_stalls += other.port_stalls;
  buffer_fifo_high_water = std::max(buffer_fifo_high_water, other.buffer_fifo_high_water);
  sdmu_scan_stalls += other.sdmu_scan_stalls;
  sdmu_fetch_stalls += other.sdmu_fetch_stalls;
  sdmu_fifo_high_water = std::max(sdmu_fifo_high_water, other.sdmu_fifo_high_water);
  memory_bound_layers += other.memory_bound_layers;
  compute_bound_layers += other.compute_bound_layers;
}

Accelerator::Accelerator(ArchConfig config)
    : config_(config),
      sdmu_(config),
      traffic_(config.traffic_model_config()),
      buffer_(config.buffer_geometry()) {}

TiledGeometry Accelerator::tile_geometry(const sparse::LayerGeometry& geometry,
                                         int cycles_per_match) {
  ESCA_REQUIRE(geometry.kind == sparse::GeometryKind::kSubmanifold,
               "the accelerator runs Sub-Conv layers, got "
                   << sparse::to_string(geometry.kind) << " geometry");
  ESCA_REQUIRE(geometry.kernel_size == config_.kernel_size,
               "geometry kernel " << geometry.kernel_size << " and architecture kernel "
                                  << config_.kernel_size << " must agree");
  obs::Span span("core.tile_geometry");
  const sparse::SparseTensor& sites = geometry.sites;
  span.arg("sites", sites.size());

  TiledGeometry tiled;
  tiled.sites = static_cast<std::int64_t>(sites.size());

  // --- §III.A zero removing ---------------------------------------------------
  const TileGrid tiles = ZeroRemoving(config_.tile_size).apply(sites, &tiled.zero_removing);

  // --- §III.B encoding ----------------------------------------------------------
  tiled.tiles = TileEncoder(config_).encode(sites, tiles, &tiled.encoding);

  // --- §III.C the match stream ------------------------------------------------
  // No timing parameter changes which matches the SDMU emits or their order,
  // so one run checks the stream for every layer on this geometry.
  RuleCheck rules(geometry, rule_scratch_);
  TiledGeometry::SdmuTiming timing{cycles_per_match, {}, 0};
  std::int64_t covered_sites = 0;
  for (const EncodedTile& tile : tiled.tiles) {
    timing.stats.merge(sdmu_.simulate_tile(tile, cycles_per_match));
    const std::span<const Match> stream = sdmu_.matches();
    // Replay this tile's real activation access stream (one read per match,
    // one writeback per output row) through the banked buffer.
    access_scratch_.clear();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Match& m = stream[i];
      rules.consume(m);
      access_scratch_.push_back({static_cast<std::int64_t>(m.in_row), false});
      if (i + 1 == stream.size() || stream[i + 1].out_row != m.out_row) {
        access_scratch_.push_back({static_cast<std::int64_t>(m.out_row), true});
        ++covered_sites;
      }
    }
    if (config_.mem.simulate_buffer) tiled.buffer_sim.merge(buffer_.simulate(access_scratch_));
  }
  rules.finish();
  ESCA_CHECK(covered_sites == tiled.sites,
             "not every site produced an output group: " << covered_sites << " vs "
                                                         << tiled.sites);
  tiled.timings.push_back(timing);
  counters().tiled_geometries.inc();
  counters().sdmu_timings.inc();
  return tiled;
}

LayerRunStats Accelerator::run_layer(const quant::QuantizedConv& layer,
                                     const sparse::LayerGeometry& geometry,
                                     const RunOptions& options) {
  TiledGeometry tiled = tile_geometry(
      geometry, config_.cycles_per_match(layer.in_channels(), layer.out_channels()));
  return run_layer(layer, tiled, options);
}

LayerRunStats Accelerator::run_layer(const quant::QuantizedConv& layer, TiledGeometry& tiled,
                                     const RunOptions& options) {
  ESCA_REQUIRE(layer.kind() == sparse::GeometryKind::kSubmanifold,
               "the accelerator runs Sub-Conv layers, got a " << sparse::to_string(layer.kind())
                                                              << " layer");
  ESCA_REQUIRE(layer.kernel_size() == config_.kernel_size,
               "layer kernel " << layer.kernel_size() << " and architecture kernel "
                               << config_.kernel_size << " must agree");
  LayerRunStats st;
  st.layer_name = layer.name();
  st.in_channels = layer.in_channels();
  st.out_channels = layer.out_channels();
  st.sites = tiled.sites;
  st.zero_removing = tiled.zero_removing;
  st.encoding = tiled.encoding;
  st.buffer_sim = tiled.buffer_sim;

  // --- buffer capacity ----------------------------------------------------------
  // Tiles whose working set overflows a buffer are double-streamed; the
  // traffic model charges the overflow, here we just measure it.
  const std::int64_t weight_bytes = layer.weight_bytes();
  if (weight_bytes > config_.weight_buffer_bytes) ++st.buffer_spills;
  const auto act_bytes_per_site = static_cast<std::int64_t>(layer.in_channels()) * 2;
  std::int64_t overflow_act_sites = 0;
  std::int64_t overflow_mask_bytes = 0;
  for (const EncodedTile& t : tiled.tiles) {
    if (t.stored_sites() * act_bytes_per_site > config_.activation_buffer_bytes) {
      ++st.buffer_spills;
      overflow_act_sites += t.stored_sites();
    }
    const std::int64_t tile_mask_bytes = (t.mask_bits() + 7) / 8;
    if (tile_mask_bytes > config_.mask_buffer_bytes) {
      ++st.buffer_spills;
      overflow_mask_bytes += tile_mask_bytes;
    }
  }
  if (st.buffer_spills > 0) {
    ESCA_LOG_WARN << "layer '" << layer.name() << "': " << st.buffer_spills
                  << " tile working sets exceed on-chip buffers (double-streamed)";
  }

  // --- per-tile SDMU + CC -------------------------------------------------------
  // The MAC array consumes each match in cycles_per_match array passes of
  // up to icP x ocP MACs, Cin x Cout of them effective (§III.D).
  const int cin = layer.in_channels();
  const int cout = layer.out_channels();
  const int ccpm = config_.cycles_per_match(cin, cout);
  const auto timing = std::find_if(
      tiled.timings.begin(), tiled.timings.end(),
      [ccpm](const TiledGeometry::SdmuTiming& t) { return t.cycles_per_match == ccpm; });
  if (timing != tiled.timings.end()) {
    if (timing->layers++ > 0) counters().sdmu_timing_reuses.inc();
    st.sdmu = timing->stats;
  } else {
    for (const EncodedTile& tile : tiled.tiles) st.sdmu.merge(sdmu_.simulate_tile(tile, ccpm));
    tiled.timings.push_back({ccpm, st.sdmu, 1});
    counters().sdmu_timings.inc();
  }
  const std::int64_t macs_per_match = static_cast<std::int64_t>(cin) * cout;
  st.cc_cycles = st.sdmu.matches * ccpm;
  st.mac_ops = st.sdmu.matches * macs_per_match;
  energy_.add_mac(st.mac_ops);
  energy_.add_bram_read(st.sdmu.matches * ((cin + 3) / 4));              // 72b act words
  energy_.add_bram_read(st.sdmu.matches * ((macs_per_match + 8) / 9));  // 72b weight words
  energy_.add_bram_write(st.sites * ((cout + 3) / 4));                   // one output row per site

  // --- DRAM traffic (sim/mem closed form) ---------------------------------------
  st.traffic_input.active_tiles = st.encoding.tiles;
  st.traffic_input.mask_bytes = st.encoding.mask_bytes;
  st.traffic_input.stored_sites = st.encoding.stored_sites;
  st.traffic_input.core_sites = st.encoding.core_sites;
  st.traffic_input.overflow_act_sites = overflow_act_sites;
  st.traffic_input.overflow_mask_bytes = overflow_mask_bytes;
  st.traffic_input.matches = st.sdmu.matches;
  st.traffic_input.in_channels = layer.in_channels();
  st.traffic_input.out_channels = layer.out_channels();
  st.traffic_input.weight_bytes = weight_bytes;
  st.traffic_input.weights_resident = options.weights_resident;
  st.traffic = traffic_.layer_traffic(st.traffic_input);
  st.dram_bytes_in = st.traffic.dram_bytes_in();
  st.dram_bytes_out = st.traffic.dram_bytes_out();

  st.total_cycles = st.sdmu.cycles;
  energy_.add_logic_cycles(st.total_cycles);
  energy_.add_dram_bytes(st.dram_bytes_in + st.dram_bytes_out);

  // --- timing -------------------------------------------------------------------
  // Bank-conflict stalls are reported, not folded into total_cycles: the
  // SDMU pipeline already rate-limits buffer reads, so folding them in
  // would double-charge the common case.
  st.compute_seconds = static_cast<double>(st.total_cycles) / config_.frequency_hz;
  st.dram_seconds = traffic_.transfer_seconds(st.traffic);
  st.total_seconds = config_.overlap_dram ? std::max(st.compute_seconds, st.dram_seconds)
                                          : st.compute_seconds + st.dram_seconds;
  st.effective_gops =
      st.total_seconds > 0.0
          ? 2.0 * static_cast<double>(st.mac_ops) / st.total_seconds / 1e9
          : 0.0;
  st.memory_bound = st.dram_seconds >= st.compute_seconds;

  counters().bank_conflict_stalls.inc(st.buffer_sim.bank_conflict_stalls);
  counters().port_stalls.inc(st.buffer_sim.port_stalls);
  counters().sdmu_scan_stalls.inc(st.sdmu.scan_stall_cycles);
  counters().sdmu_fetch_stalls.inc(st.sdmu.fetch_stall_cycles);

  return st;
}

std::int64_t NetworkRunStats::total_cycles() const {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.total_cycles;
  return n;
}

std::int64_t NetworkRunStats::total_mac_ops() const {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.mac_ops;
  return n;
}

double NetworkRunStats::total_seconds() const {
  double s = 0.0;
  for (const auto& l : layers) s += l.total_seconds;
  return s;
}

double NetworkRunStats::effective_gops() const {
  const double s = total_seconds();
  return s > 0.0 ? 2.0 * static_cast<double>(total_mac_ops()) / s / 1e9 : 0.0;
}

MemorySummary NetworkRunStats::memory_summary() const {
  MemorySummary m;
  for (const auto& l : layers) m.add(l);
  return m;
}

}  // namespace esca::core
