// Sparse Data Matching Unit (paper §III.C, Figs. 6-7).
//
// Functional contract: for every active tile, emit exactly the match groups
// the rulebook prescribes. core::Accelerator::run_layer enforces it on every
// layer (it throws esca::InternalError when the match stream and the
// rulebook differ by a single rule). Timing contract: a four-stage
// pipeline —
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
#include <vector>

#include "core/arch_config.hpp"
#include "core/encoding.hpp"
#include "core/match.hpp"
#include "core/state_index.hpp"
#include "sparse/sparse_tensor.hpp"

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

struct SdmuResult {
  /// Match groups in consumption order (scan order of active SRFs).
  std::vector<MatchGroup> groups;
  SdmuStats stats;
};

class Sdmu {
 public:
  explicit Sdmu(const ArchConfig& config);

  /// Cycle-accurate simulation of one tile: its match groups in scan order
  /// plus the pipeline's timing. `geometry` resolves output rows for SRF
  /// centers.
  /// @param cc_cycles_per_match  consumption rate of the computing core
  ///                             (ceil(Cin/icP) * ceil(Cout/ocP)).
  SdmuResult simulate_tile(const EncodedTile& tile, const sparse::SparseTensor& geometry,
                           int cc_cycles_per_match) const;

  const ArchConfig& config() const { return config_; }

 private:
  ArchConfig config_;
  StateIndexGenerator state_gen_;
};

}  // namespace esca::core
