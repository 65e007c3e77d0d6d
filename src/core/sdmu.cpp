#include "core/sdmu.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "core/mask_judger.hpp"

namespace esca::core {

namespace {

/// Address-fragment registers between generate and fetch, per column. Two
/// entries model the generate/fetch skid buffer of the pipeline.
constexpr std::size_t kFragmentQueueDepth = 2;

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

const ArchConfig& validated(const ArchConfig& config) {
  config.validate();
  return config;
}

}  // namespace

void SdmuStats::merge(const SdmuStats& other) {
  cycles += other.cycles;
  srf_total += other.srf_total;
  srf_active += other.srf_active;
  srf_skipped += other.srf_skipped;
  matches += other.matches;
  scan_stall_cycles += other.scan_stall_cycles;
  fetch_stall_cycles += other.fetch_stall_cycles;
  mux_idle_cycles += other.mux_idle_cycles;
  fifo_high_water = std::max(fifo_high_water, other.fifo_high_water);
}

Sdmu::Sdmu(const ArchConfig& config)
    : config_(validated(config)),
      state_gen_(config.kernel_size),
      tickets_(static_cast<std::size_t>(config.fifo_depth)) {
  for (int c = 0; c < config_.k2(); ++c) {
    fifos_.emplace_back(static_cast<std::size_t>(config_.fifo_depth));
    fragments_.emplace_back(kFragmentQueueDepth);
  }
}

SdmuStats Sdmu::simulate_tile(const EncodedTile& tile, int cc_cycles_per_match) {
  ESCA_REQUIRE(cc_cycles_per_match >= 1, "cc_cycles_per_match must be >= 1");
  const int r = config_.kernel_radius();
  const int k = config_.kernel_size;
  const int k2 = config_.k2();
  const int k3 = config_.k3();
  const int read_cycles = config_.mask_read_cycles;
  const Coord3 core = tile.core_size();

  for (sim::Fifo<Match>& fifo : fifos_) {
    fifo.clear();
    fifo.reset_stats();
  }
  for (sim::Fifo<Fragment>& queue : fragments_) queue.clear();
  tickets_.clear();
  generated_ = 0;
  std::size_t consumed = 0;  // matches the CC has taken

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
  std::int64_t next_active = MaskJudger::next_active(tile, 0);

  SdmuStats st;
  st.srf_total = scan_total;

  int read_countdown = read_cycles;
  bool judged_ready = false;  // an SRF sits in the judge->generate latch
  Coord3 judged_pos{};
  std::int64_t cc_busy = 0;

  const std::int64_t safety_limit =
      16 * (scan_total + 8) * (read_cycles + k3) * cc_cycles_per_match + 1024;

  while (scan_index < scan_total || judged_ready || !tickets_.empty()) {
    ESCA_CHECK(st.cycles < safety_limit, "SDMU simulation did not converge (deadlock?)");

    // --- fast-forward -----------------------------------------------------------
    // While the CC is busy (or has no group to serve), every fetch engine
    // holding work faces a full FIFO, and the scan is latched behind a
    // stalled generate stage or passing non-active SRFs, a cycle changes
    // only stall counters, the CC countdown and the scan position. Jump to
    // the CC freeing or the next active SRF's read, whichever comes first.
    std::int64_t horizon = tickets_.empty() ? kNever : cc_busy;
    if (horizon > 0) {
      std::int64_t fetching = 0;  // engines holding work, each stalled
      bool fetch_blocked = true;
      bool room = !tickets_.full();
      for (std::size_t c = 0; c < fifos_.size() && fetch_blocked; ++c) {
        if (fragments_[c].full()) room = false;
        if (fragments_[c].empty()) continue;
        ++fetching;
        fetch_blocked = fifos_[c].full();
      }
      const bool scanning = !judged_ready && scan_index < scan_total;
      if (scanning) {
        if (next_active < scan_index) next_active = MaskJudger::next_active(tile, scan_index);
        const std::int64_t target = std::min(next_active, scan_total - 1);
        horizon = std::min(horizon, read_countdown + (target - scan_index) * read_cycles);
      }
      if (fetch_blocked && !(judged_ready && room) && horizon != kNever) {
        st.cycles += horizon;
        cc_busy = std::max<std::int64_t>(0, cc_busy - horizon);
        st.fetch_stall_cycles += fetching * horizon;
        if (judged_ready) st.scan_stall_cycles += horizon;
        if (scanning && horizon >= read_countdown) {
          // Reads land every read_cycles cycles from read_countdown on; only
          // the last one can be the next active SRF.
          const std::int64_t reads = 1 + (horizon - read_countdown) / read_cycles;
          const std::int64_t last_read = read_countdown + (reads - 1) * read_cycles;
          scan_index += reads;
          read_countdown = read_cycles - static_cast<int>(horizon - last_read);
          st.srf_skipped += reads;
          if (scan_index - 1 == next_active) {
            --st.srf_skipped;
            ++st.srf_active;
            judged_ready = true;
            judged_pos = scan_position(next_active);
          }
        } else if (scanning) {
          read_countdown -= static_cast<int>(horizon);
        }
        continue;
      }
    }
    ++st.cycles;

    // 1) MUX + CC consumption (group by group, column order within a group).
    if (cc_busy > 0) {
      --cc_busy;
    } else if (!tickets_.empty()) {
      const Match& expected = matches_[consumed];
      const std::optional<Match> popped =
          fifos_[static_cast<std::size_t>(expected.column)].try_pop();
      if (popped.has_value()) {
        ESCA_CHECK(*popped == expected, "the MUX popped a match out of group order");
        ++consumed;
        ++st.matches;
        cc_busy = cc_cycles_per_match - 1;
        if (consumed == tickets_.front().end) (void)tickets_.try_pop();
      } else {
        ++st.mux_idle_cycles;
      }
    }

    // 2) Fetch engines: one activation per column per cycle.
    for (int c = 0; c < k2; ++c) {
      sim::Fifo<Fragment>& queue = fragments_[static_cast<std::size_t>(c)];
      if (queue.empty()) continue;
      Fragment& frag = queue.front();
      if (fifos_[static_cast<std::size_t>(c)].try_push(matches_[frag.next])) {
        if (++frag.next == frag.end) (void)queue.try_pop();
      } else {
        ++st.fetch_stall_cycles;
      }
    }

    // 3) Generate stage: expand the judged SRF into fragments + group ticket.
    if (judged_ready) {
      bool room = !tickets_.full();
      for (int c = 0; room && c < k2; ++c) room = !fragments_[static_cast<std::size_t>(c)].full();
      if (room) {
        // The centre's row, read from the tile's own valid data.
        const int centre = tile.column_of(judged_pos.x, judged_pos.y);
        const std::int32_t out_row =
            tile.site_row(tile.column_start()[static_cast<std::size_t>(centre)] +
                          tile.column_prefix(centre, judged_pos.z));
        const std::size_t begin = generated_;
        matches_.resize(std::max(matches_.size(), generated_ + static_cast<std::size_t>(k3)));
        for (int dy = -r; dy <= r; ++dy) {
          for (int dx = -r; dx <= r; ++dx) {
            const int n = state_gen_.column_matches(
                tile, judged_pos.x, judged_pos.y, judged_pos.z, dx, dy, out_row,
                std::span<Match>(matches_).subspan(generated_, static_cast<std::size_t>(k)));
            if (n == 0) continue;
            fragments_[static_cast<std::size_t>((dy + r) * k + (dx + r))].push(
                Fragment{generated_, generated_ + static_cast<std::size_t>(n)});
            generated_ += static_cast<std::size_t>(n);
          }
        }
        // A center site always matches itself, so the ticket is non-empty.
        ESCA_CHECK(generated_ > begin, "active SRF produced no matches");
        tickets_.push(GroupTicket{generated_});
        judged_ready = false;
      } else {
        ++st.scan_stall_cycles;
      }
    }

    // 4) Read + judge: one SRF every mask_read_cycles cycles unless the
    //    judge->generate latch is occupied (backpressure).
    if (scan_index < scan_total && !judged_ready) {
      if (read_countdown > 1) {
        --read_countdown;
      } else {
        const Coord3 pos = scan_position(scan_index);
        ++scan_index;
        read_countdown = read_cycles;
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
  for (const sim::Fifo<Match>& fifo : fifos_) {
    ESCA_CHECK(fifo.empty(), "FIFOs not drained at end of tile");
    st.fifo_high_water = std::max(st.fifo_high_water, fifo.high_water());
  }
  ESCA_CHECK(consumed == generated_, "the CC consumed " << consumed << " of " << generated_
                                                         << " generated matches");
  return st;
}

}  // namespace esca::core
