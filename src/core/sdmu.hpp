// Sparse Data Matching Unit (paper §III.C, Figs. 6-7).
//
// Functional contract: for every active tile, emit exactly the match groups
// the rulebook prescribes. core::Accelerator::tile_geometry enforces it on
// every geometry it tiles (it throws esca::InternalError when the match
// stream and the rulebook differ by a single rule). Timing contract: a
// four-stage pipeline —
//   read masks   : one SRF's K^2 column masks per mask_read_cycles cycles
//   judge state  : center bit decides active / skip (skip costs no fetch)
//   generate     : per-column state index (A, B) -> address fragment (A-B, A)
//   fetch        : per-column engines read 1 activation/cycle into the
//                  K^2-FIFO group; the MUX forwards matches, group by group,
//                  to the computing core at its consumption rate
// Backpressure is modelled end to end: full fragment queues stall the scan,
// full FIFOs stall fetch engines, and the CC's cycles-per-match sets the
// drain rate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/arch_config.hpp"
#include "core/encoding.hpp"
#include "core/match.hpp"
#include "core/state_index.hpp"
#include "sim/fifo.hpp"

namespace esca::core {

struct SdmuStats {
  std::int64_t cycles{0};
  std::int64_t srf_total{0};
  std::int64_t srf_active{0};
  std::int64_t srf_skipped{0};
  std::int64_t matches{0};
  std::int64_t scan_stall_cycles{0};   ///< scan blocked on full fragment queue
  std::int64_t fetch_stall_cycles{0};  ///< fetch blocked on full match FIFO
  std::int64_t mux_idle_cycles{0};     ///< CC ready but no match available
  std::size_t fifo_high_water{0};

  void merge(const SdmuStats& other);
};

class Sdmu {
 public:
  explicit Sdmu(const ArchConfig& config);

  /// Cycle-accurate simulation of one tile: the pipeline's timing. Cycles in
  /// which no stage can change state are skipped in closed form, stall
  /// counts included; the FIFOs and queues are reused from tile to tile.
  /// @param cc_cycles_per_match  consumption rate of the computing core
  ///                             (ceil(Cin/icP) * ceil(Cout/ocP)).
  SdmuStats simulate_tile(const EncodedTile& tile, int cc_cycles_per_match);

  /// The last simulated tile's match groups in the order the computing core
  /// consumed them: one per active SRF, consecutive, named by out_row.
  std::span<const Match> matches() const { return {matches_.data(), generated_}; }

 private:
  struct Fragment {  ///< a column's matches_[next, end) awaiting its fetch engine
    std::size_t next{0};
    std::size_t end{0};
  };
  struct GroupTicket {  ///< a match group awaiting the MUX, ending at matches_[end]
    std::size_t end{0};
  };

  ArchConfig config_;
  StateIndexGenerator state_gen_;
  std::vector<sim::Fifo<Match>> fifos_;         ///< the K^2-FIFO group
  std::vector<sim::Fifo<Fragment>> fragments_;  ///< per column, generate -> fetch
  sim::Fifo<GroupTicket> tickets_;              ///< generate -> MUX
  std::vector<Match> matches_;  ///< the tile's matches, generation order
  std::size_t generated_{0};    ///< matches_ entries this tile
};

}  // namespace esca::core
