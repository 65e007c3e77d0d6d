#include "core/sdmu.hpp"

#include <algorithm>
#include <deque>

#include "common/check.hpp"
#include "core/fifo_group.hpp"
#include "core/mask_judger.hpp"

namespace esca::core {

namespace {

/// Address-fragment registers between generate and fetch, per column. Two
/// entries model the generate/fetch skid buffer of the pipeline.
constexpr std::size_t kFragmentQueueDepth = 2;

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

Sdmu::Sdmu(const ArchConfig& config) : config_(config), state_gen_(config.kernel_size) {
  config_.validate();
}

SdmuResult Sdmu::simulate_tile(const EncodedTile& tile, const sparse::SparseTensor& geometry,
                               int cc_cycles_per_match) const {
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
            auto matches = state_gen_.column_matches(tile, judged_pos.x, judged_pos.y,
                                                     judged_pos.z, dx, dy, out_row);
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

}  // namespace esca::core
