// The SDMU and tile encoder as they were before the simulator was made fast,
// kept as the reference the fast paths are tested against: the volume-
// probing TileEncoder::encode, Sdmu::simulate_tile stepping every cycle with
// per-SRF vectors and deques, and their FifoGroup and column_matches. The
// loops are copied unchanged; only their class scaffolding became free
// functions over the config.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/check.hpp"
#include "core/arch_config.hpp"
#include "core/encoding.hpp"
#include "core/mask_judger.hpp"
#include "core/match.hpp"
#include "core/sdmu.hpp"
#include "core/state_index.hpp"
#include "core/zero_removing.hpp"
#include "sim/fifo.hpp"
#include "sparse/rulebook.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::core::reference {

/// Address-fragment registers between generate and fetch, per column. Two
/// entries model the generate/fetch skid buffer of the pipeline.
constexpr std::size_t kFragmentQueueDepth = 2;

struct MatchGroup {
  std::int32_t out_row;
  std::vector<Match> matches;
};

struct SdmuResult {
  /// Match groups in consumption order (scan order of active SRFs).
  std::vector<MatchGroup> groups;
  SdmuStats stats;
};

class FifoGroup {
 public:
  FifoGroup(int columns, std::size_t depth);

  sim::Fifo<Match>& fifo(int column) { return fifos_[static_cast<std::size_t>(column)]; }
  const sim::Fifo<Match>& fifo(int column) const {
    return fifos_[static_cast<std::size_t>(column)];
  }

  bool all_empty() const;

  /// Deepest any FIFO ever got (FIFO-depth ablation metric).
  std::size_t high_water() const;

 private:
  std::vector<sim::Fifo<Match>> fifos_;
};

inline FifoGroup::FifoGroup(int columns, std::size_t depth) {
  ESCA_REQUIRE(columns > 0, "FIFO group needs at least one column");
  fifos_.reserve(static_cast<std::size_t>(columns));
  for (int c = 0; c < columns; ++c) fifos_.emplace_back(depth);
}

inline bool FifoGroup::all_empty() const {
  return std::all_of(fifos_.begin(), fifos_.end(),
                     [](const sim::Fifo<Match>& f) { return f.empty(); });
}

inline std::size_t FifoGroup::high_water() const {
  std::size_t hw = 0;
  for (const auto& f : fifos_) hw = std::max(hw, f.high_water());
  return hw;
}

inline std::vector<Match> column_matches(int kernel_size_, const EncodedTile& tile, int cx,
                                         int cy, int cz, int dx, int dy, std::int32_t out_row) {
  const int r = kernel_size_ / 2;
  const int x = cx + dx;
  const int y = cy + dy;
  ESCA_ASSERT(x >= 0 && x < tile.padded_size().x && y >= 0 && y < tile.padded_size().y,
              "column outside padded tile");
  const int col = tile.column_of(x, y);
  const StateIndex s = StateIndexGenerator(kernel_size_).generate(tile, col, cz);
  const AddressFragment frag = StateIndexGenerator::to_fragment(s);

  std::vector<Match> matches;
  matches.reserve(static_cast<std::size_t>(frag.length()));
  const std::int32_t base = tile.column_start()[static_cast<std::size_t>(col)];
  // Recover each activation's dz from the mask window: the i-th set bit in
  // [cz-r, cz+r] corresponds to address base + (A - B) + i.
  const int lo = std::max(0, cz - r);
  const int hi = std::min(tile.depth(), cz + r + 1);
  std::int32_t offset = 0;
  const auto column_index = static_cast<std::int16_t>((dy + r) * kernel_size_ + (dx + r));
  for (int z = lo; z < hi; ++z) {
    if (!tile.mask_at(col, z)) continue;
    const std::int32_t address = base + frag.begin + offset;
    const int dz = z - cz;
    const int widx = sparse::kernel_offset_index({dx, dy, dz}, kernel_size_);
    matches.push_back(Match{tile.site_row(address), static_cast<std::int16_t>(widx),
                            column_index, out_row});
    ++offset;
  }
  ESCA_CHECK(offset == frag.length(),
             "mask window and address fragment disagree: " << offset << " vs "
                                                           << frag.length());
  return matches;
}

inline SdmuResult simulate_tile(const ArchConfig& config_, const EncodedTile& tile,
                                const sparse::SparseTensor& geometry, int cc_cycles_per_match) {
  ESCA_REQUIRE(cc_cycles_per_match >= 1, "cc_cycles_per_match must be >= 1");
  const int r = config_.kernel_radius();
  const int k2 = config_.k2();
  const Coord3 core = tile.core_size();

  // --- pipeline structures ----------------------------------------------------
  struct Fragment {
    std::vector<Match> matches;
    std::size_t next{0};
  };
  struct GroupTicket {
    std::int32_t out_row{0};
    std::vector<std::int32_t> remaining;  // per column
    std::int64_t total{0};
    int current_column{0};
  };

  std::vector<std::deque<Fragment>> fragment_queues(static_cast<std::size_t>(k2));
  std::deque<GroupTicket> group_queue;
  const std::size_t group_queue_depth = static_cast<std::size_t>(config_.fifo_depth);
  FifoGroup fifos(k2, static_cast<std::size_t>(config_.fifo_depth));

  // --- scan position ----------------------------------------------------------
  std::int64_t scan_index = 0;
  const std::int64_t scan_total = core.volume();
  auto scan_position = [&](std::int64_t idx) {
    const auto cz = static_cast<std::int32_t>(idx % core.z);
    idx /= core.z;
    const auto cy = static_cast<std::int32_t>(idx % core.y);
    const auto cx = static_cast<std::int32_t>(idx / core.y);
    return Coord3{cx + r, cy + r, cz + r};
  };

  SdmuResult result;
  SdmuStats& st = result.stats;
  st.srf_total = scan_total;

  int read_countdown = config_.mask_read_cycles;
  bool judged_ready = false;   // an SRF sits in the judge->generate latch
  Coord3 judged_pos{};
  bool scan_done = (scan_total == 0);

  std::int64_t cc_busy = 0;
  std::int64_t groups_in_flight_matches = 0;  // matches generated, not yet consumed

  const std::int64_t safety_limit =
      16 * (scan_total + 8) * (config_.mask_read_cycles + config_.k3()) *
          cc_cycles_per_match +
      1024;

  while (true) {
    const bool work_left = !scan_done || judged_ready || groups_in_flight_matches > 0 ||
                           !group_queue.empty();
    if (!work_left) break;
    ESCA_CHECK(st.cycles < safety_limit, "SDMU simulation did not converge (deadlock?)");
    ++st.cycles;

    // 1) MUX + CC consumption (group by group, column order within a group).
    if (cc_busy > 0) {
      --cc_busy;
    } else if (!group_queue.empty()) {
      GroupTicket& g = group_queue.front();
      if (g.total == 0) {
        // Empty groups never enter the queue, so total==0 means finished.
        group_queue.pop_front();
      } else {
        while (g.current_column < k2 &&
               g.remaining[static_cast<std::size_t>(g.current_column)] == 0) {
          ++g.current_column;
        }
        ESCA_CHECK(g.current_column < k2, "group ticket remaining/total mismatch");
        auto popped = fifos.fifo(g.current_column).try_pop();
        if (popped.has_value()) {
          ESCA_CHECK(popped->out_row == g.out_row, "FIFO match belongs to a different group");
          if (result.groups.empty() || result.groups.back().out_row != g.out_row) {
            result.groups.push_back(MatchGroup{g.out_row, {}});
          }
          result.groups.back().matches.push_back(*popped);
          --g.remaining[static_cast<std::size_t>(g.current_column)];
          --g.total;
          --groups_in_flight_matches;
          ++st.matches;
          cc_busy = cc_cycles_per_match - 1;
          if (g.total == 0) group_queue.pop_front();
        } else {
          ++st.mux_idle_cycles;
        }
      }
    }

    // 2) Fetch engines: one activation per column per cycle.
    for (int c = 0; c < k2; ++c) {
      auto& q = fragment_queues[static_cast<std::size_t>(c)];
      if (q.empty()) continue;
      Fragment& frag = q.front();
      if (frag.next >= frag.matches.size()) {
        q.pop_front();
        continue;
      }
      if (fifos.fifo(c).try_push(frag.matches[frag.next])) {
        ++frag.next;
        if (frag.next >= frag.matches.size()) q.pop_front();
      } else {
        ++st.fetch_stall_cycles;
      }
    }

    // 3) Generate stage: expand the judged SRF into fragments + group ticket.
    if (judged_ready) {
      bool room = group_queue.size() < group_queue_depth;
      for (int c = 0; room && c < k2; ++c) {
        room = fragment_queues[static_cast<std::size_t>(c)].size() < kFragmentQueueDepth;
      }
      if (room) {
        const Coord3 global = tile.padded_origin() + judged_pos;
        const std::int32_t out_row = geometry.find(global);
        ESCA_CHECK(out_row >= 0, "active mask bit without a site at " << global);

        GroupTicket ticket;
        ticket.out_row = out_row;
        ticket.remaining.assign(static_cast<std::size_t>(k2), 0);
        for (int dy = -r; dy <= r; ++dy) {
          for (int dx = -r; dx <= r; ++dx) {
            auto matches = column_matches(config_.kernel_size, tile, judged_pos.x,
                                          judged_pos.y, judged_pos.z, dx, dy, out_row);
            if (matches.empty()) continue;
            const int col = (dy + r) * config_.kernel_size + (dx + r);
            ticket.remaining[static_cast<std::size_t>(col)] =
                static_cast<std::int32_t>(matches.size());
            ticket.total += static_cast<std::int64_t>(matches.size());
            groups_in_flight_matches += static_cast<std::int64_t>(matches.size());
            fragment_queues[static_cast<std::size_t>(col)].push_back(
                Fragment{std::move(matches), 0});
          }
        }
        // A center site always matches itself, so the ticket is non-empty.
        ESCA_CHECK(ticket.total > 0, "active SRF produced no matches");
        group_queue.push_back(std::move(ticket));
        judged_ready = false;
      } else {
        ++st.scan_stall_cycles;
      }
    }

    // 4) Read + judge: one SRF every mask_read_cycles cycles unless the
    //    judge->generate latch is occupied (backpressure).
    if (!scan_done && !judged_ready) {
      if (read_countdown > 1) {
        --read_countdown;
      } else {
        const Coord3 pos = scan_position(scan_index);
        ++scan_index;
        if (scan_index >= scan_total) scan_done = true;
        read_countdown = config_.mask_read_cycles;
        if (MaskJudger::judge(tile, pos.x, pos.y, pos.z) == SrfState::kActive) {
          judged_ready = true;
          judged_pos = pos;
          ++st.srf_active;
        } else {
          ++st.srf_skipped;
        }
      }
    }
  }

  st.cycles += config_.pipeline_fill_cycles;
  st.fifo_high_water = fifos.high_water();
  ESCA_CHECK(fifos.all_empty(), "FIFOs not drained at end of tile");
  return result;
}

inline std::vector<EncodedTile> encode(const ArchConfig& config_,
                                       const sparse::SparseTensor& geometry,
                                       const TileGrid& tiles, EncodingStats* stats) {
  const int radius = config_.kernel_radius();
  std::vector<EncodedTile> encoded;
  encoded.reserve(tiles.tiles().size());

  for (const Coord3& tile : tiles.tiles()) {
    EncodedTile et(tile, tiles.origin(tile), tiles.tile_size(), radius);
    const Coord3 porigin = et.padded_origin();
    const Coord3 psize = et.padded_size();

    std::vector<std::int32_t> column_start(static_cast<std::size_t>(et.columns()) + 1, 0);
    std::vector<std::int32_t> site_rows;
    std::int32_t core_active = 0;

    // Column-major sweep; inside a column ascending z — the exact order the
    // valid-data buffer is filled in (paper Fig. 4).
    for (int x = 0; x < psize.x; ++x) {
      for (int y = 0; y < psize.y; ++y) {
        const int col = et.column_of(x, y);
        column_start[static_cast<std::size_t>(col)] =
            static_cast<std::int32_t>(site_rows.size());
        for (int z = 0; z < psize.z; ++z) {
          const Coord3 global = porigin + Coord3{x, y, z};
          if (!in_bounds(global, geometry.spatial_extent())) continue;
          const std::int32_t row = geometry.find(global);
          if (row < 0) continue;
          et.set_mask(col, z);
          site_rows.push_back(row);
          const bool in_core = x >= radius && x < radius + et.core_size().x && y >= radius &&
                               y < radius + et.core_size().y && z >= radius &&
                               z < radius + et.core_size().z;
          if (in_core) ++core_active;
        }
      }
    }
    column_start.back() = static_cast<std::int32_t>(site_rows.size());
    // column_start must be a prefix: fix columns that had no sites after
    // them (we set starts eagerly above, so fill any gaps monotonically).
    for (std::size_t c = static_cast<std::size_t>(et.columns()); c > 0; --c) {
      if (column_start[c - 1] > column_start[c]) column_start[c - 1] = column_start[c];
    }

    const std::int64_t stored = static_cast<std::int64_t>(site_rows.size());
    et.finalize(std::move(column_start), std::move(site_rows), core_active);

    if (stats != nullptr) {
      stats->tiles += 1;
      stats->mask_bytes += (et.mask_bits() + 7) / 8;
      stats->stored_sites += stored;
      stats->core_sites += core_active;
      stats->halo_duplicates += stored - core_active;
    }
    encoded.push_back(std::move(et));
  }
  return encoded;
}

}  // namespace esca::core::reference
