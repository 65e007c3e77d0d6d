#include "sparse/compute.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"
#include "common/executor.hpp"
#include "fault/injector.hpp"

// Bit-identity contract: the engine reproduces the scalar reference's float
// results exactly. Contracting mul+add into FMA single-rounds each step and
// breaks that, so it is off for this translation unit (the wide-SIMD kernel
// clones would otherwise contract while the baseline reference cannot).
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace esca::sparse {

namespace {

/// Rules gathered per microkernel invocation. Bounds per-partition scratch to
/// kGatherRows x cin activations while keeping the gather loop long enough
/// to amortize the call.
constexpr std::size_t kGatherRows = 128;

/// Work below which the default partition count is throttled: an extra
/// partition must bring at least this many MACs to pay for a helper wakeup.
constexpr std::int64_t kMinMacsPerPart = 1 << 21;

#define ESCA_ALWAYS_INLINE inline __attribute__((always_inline))

/// One rule's MAC into one out-channel block of width kW, accumulators held
/// in registers across the whole in-channel loop.
///
/// Per output element the adds happen in ascending-ci order — exactly the
/// element-wise order of the scalar reference (which nests co inside ci;
/// the interchange reorders operations on *different* elements only), so
/// results stay bit-identical while the accumulator block lives in vector
/// registers instead of round-tripping through memory every ci step. The
/// kW lanes are independent chains, which is also what hides FMA latency.
template <int kW, typename TIn, typename TW, typename TAcc>
ESCA_ALWAYS_INLINE void mac_colblock(const TIn* __restrict a, int cin, int cout,
                                     const TW* __restrict w, TAcc* __restrict out, int co0) {
  TAcc acc[kW];
  for (int k = 0; k < kW; ++k) acc[k] = out[co0 + k];
  for (int ci = 0; ci < cin; ++ci) {
    const TW* wrow = w + static_cast<std::size_t>(ci) * static_cast<std::size_t>(cout) + co0;
    if constexpr (std::is_floating_point_v<TAcc>) {
      const TAcc av = a[ci];
      for (int k = 0; k < kW; ++k) acc[k] += av * wrow[k];
    } else {
      // INT16 x INT8 fits INT32 exactly; widening the product (not the
      // operands) keeps the multiply vectorizable.
      const std::int32_t av = a[ci];
      for (int k = 0; k < kW; ++k) {
        acc[k] += static_cast<TAcc>(av * static_cast<std::int32_t>(wrow[k]));
      }
    }
  }
  for (int k = 0; k < kW; ++k) out[co0 + k] = acc[k];
}

// Explicit 512-bit float vectors (GCC/Clang vector extensions): each ISA
// clone lowers them to its native width (1 zmm / 2 ymm / 4 xmm), which
// sidesteps the autovectorizer's conservative 256-bit preference. Lane ops
// are plain IEEE mul/add — no reassociation, no contraction (see the
// fp-contract pragma above), so bit-identity is preserved.
#if defined(__GNUC__) || defined(__clang__)
#define ESCA_VECTOR_EXT 1
typedef float vf16 __attribute__((vector_size(64)));

// Output-parameter style: returning a 64-byte vector from a non-AVX512
// function would trip -Wpsabi (the helpers are always_inline, so there is
// no real ABI boundary — this just keeps the build warning-clean).
ESCA_ALWAYS_INLINE void vload16(const float* p, vf16& r) {
  __builtin_memcpy(&r, p, sizeof(r));
}
ESCA_ALWAYS_INLINE void vstore16(float* p, const vf16& x) {
  __builtin_memcpy(p, &x, sizeof(x));
}

/// Float column block of kNV x 16 channels, accumulators in registers.
template <int kNV>
ESCA_ALWAYS_INLINE void mac_colblock_f(const float* __restrict a, int cin, int cout,
                                       const float* __restrict w, float* __restrict out,
                                       int co0) {
  vf16 acc[kNV];
  for (int k = 0; k < kNV; ++k) vload16(out + co0 + 16 * k, acc[k]);
  for (int ci = 0; ci < cin; ++ci) {
    const float* wrow =
        w + static_cast<std::size_t>(ci) * static_cast<std::size_t>(cout) + co0;
    const vf16 av = a[ci] + vf16{};  // broadcast
    for (int k = 0; k < kNV; ++k) {
      vf16 wv;
      vload16(wrow + 16 * k, wv);
      acc[k] += av * wv;
    }
  }
  for (int k = 0; k < kNV; ++k) vstore16(out + co0 + 16 * k, acc[k]);
}
#endif

/// Largest INT16 x INT8 product magnitude: 32767 * 127.
constexpr std::int64_t kMaxI16I8Product = 32767LL * 127LL;
/// Up to this many in-channels, one rule's per-element partial sum fits
/// INT32 exactly (512 * 32767 * 127 < 2^31), so the inner loop can run in
/// 32-bit lanes and widen to the INT64 accumulator once per rule. Integer
/// addition is associative — the result is bit-identical to accumulating
/// in INT64 throughout.
constexpr int kMaxCinForI32Partial = 512;
static_assert(kMaxCinForI32Partial * kMaxI16I8Product <
              (std::int64_t{1} << 31) - kMaxI16I8Product);

/// Integer rule MAC with INT32 per-rule partials (see kMaxCinForI32Partial).
template <int kW>
ESCA_ALWAYS_INLINE void mac_colblock_i32(const std::int16_t* __restrict a, int cin, int cout,
                                         const std::int8_t* __restrict w,
                                         std::int64_t* __restrict out, int co0) {
  std::int32_t acc[kW] = {};
  for (int ci = 0; ci < cin; ++ci) {
    const std::int8_t* wrow =
        w + static_cast<std::size_t>(ci) * static_cast<std::size_t>(cout) + co0;
    const std::int32_t av = a[ci];
    for (int k = 0; k < kW; ++k) acc[k] += av * static_cast<std::int32_t>(wrow[k]);
  }
  for (int k = 0; k < kW; ++k) out[co0 + k] += acc[k];
}

/// One rule against the full [cin x cout] weight matrix: widest column
/// blocks first, narrowing for the remainder.
template <typename TIn, typename TW, typename TAcc>
ESCA_ALWAYS_INLINE void rule_mac(const TIn* __restrict a, int cin, int cout,
                                 const TW* __restrict w, TAcc* __restrict out) {
  int co = 0;
  if constexpr (std::is_floating_point_v<TAcc>) {
#ifdef ESCA_VECTOR_EXT
    for (; co + 64 <= cout; co += 64) mac_colblock_f<4>(a, cin, cout, w, out, co);
    for (; co + 16 <= cout; co += 16) mac_colblock_f<1>(a, cin, cout, w, out, co);
#else
    for (; co + 64 <= cout; co += 64) mac_colblock<64>(a, cin, cout, w, out, co);
    for (; co + 16 <= cout; co += 16) mac_colblock<16>(a, cin, cout, w, out, co);
#endif
    for (; co + 4 <= cout; co += 4) mac_colblock<4>(a, cin, cout, w, out, co);
    for (; co < cout; ++co) mac_colblock<1>(a, cin, cout, w, out, co);
  } else if (cin <= kMaxCinForI32Partial) {
    for (; co + 32 <= cout; co += 32) mac_colblock_i32<32>(a, cin, cout, w, out, co);
    for (; co + 8 <= cout; co += 8) mac_colblock_i32<8>(a, cin, cout, w, out, co);
    for (; co < cout; ++co) mac_colblock_i32<1>(a, cin, cout, w, out, co);
  } else {
    // INT64 accumulators are 8x wider; smaller blocks keep them in registers.
    for (; co + 16 <= cout; co += 16) mac_colblock<16>(a, cin, cout, w, out, co);
    for (; co + 4 <= cout; co += 4) mac_colblock<4>(a, cin, cout, w, out, co);
    for (; co < cout; ++co) mac_colblock<1>(a, cin, cout, w, out, co);
  }
}

/// The branch-free microkernel body. One rule at a time, in bucket order,
/// so the accumulation into every output row follows the offset-major
/// scalar reference exactly (no float reassociation anywhere).
template <typename TIn, typename TW, typename TAcc>
ESCA_ALWAYS_INLINE void microkernel_body(const TIn* __restrict tile,
                                         const std::uint8_t* __restrict nonzero,
                                         const std::int32_t* __restrict target,
                                         std::size_t n_rules, int cin, int cout,
                                         const TW* __restrict w, TAcc* __restrict acc) {
  for (std::size_t r = 0; r < n_rules; ++r) {
    if (!nonzero[r]) continue;  // per-row skip replacing the per-element one
    rule_mac(tile + r * static_cast<std::size_t>(cin), cin, cout, w,
             acc + static_cast<std::size_t>(target[r]) * static_cast<std::size_t>(cout));
  }
}

// The concrete kernels get per-ISA clones (runtime-dispatched via ifunc):
// the library stays runnable on baseline x86-64 while AVX2/AVX-512 machines
// pick the wide version. Lanes of a column block are independent output
// elements, so wider SIMD never reorders any per-element float sum.
//
// Sanitized builds skip the clones: ifunc resolvers run before the
// sanitizer runtime initializes and segfault at startup (a trivial
// target_clones program crashes the same way under -fsanitize=thread).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define ESCA_KERNEL_CLONES
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define ESCA_KERNEL_CLONES
#endif
#endif
#if !defined(ESCA_KERNEL_CLONES)
#if defined(__x86_64__) && defined(__gnu_linux__)
#define ESCA_KERNEL_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define ESCA_KERNEL_CLONES
#endif
#endif

ESCA_KERNEL_CLONES
void microkernel_f32(const float* tile, const std::uint8_t* nonzero, const std::int32_t* target,
                     std::size_t n_rules, int cin, int cout, const float* w, float* acc) {
  microkernel_body(tile, nonzero, target, n_rules, cin, cout, w, acc);
}

ESCA_KERNEL_CLONES
void microkernel_i16i8(const std::int16_t* tile, const std::uint8_t* nonzero,
                       const std::int32_t* target, std::size_t n_rules, int cin, int cout,
                       const std::int8_t* w, std::int64_t* acc) {
  microkernel_body(tile, nonzero, target, n_rules, cin, cout, w, acc);
}

void dispatch_microkernel(const float* tile, const std::uint8_t* nonzero,
                          const std::int32_t* target, std::size_t n_rules, int cin, int cout,
                          const float* w, float* acc) {
  microkernel_f32(tile, nonzero, target, n_rules, cin, cout, w, acc);
}

void dispatch_microkernel(const std::int16_t* tile, const std::uint8_t* nonzero,
                          const std::int32_t* target, std::size_t n_rules, int cin, int cout,
                          const std::int8_t* w, std::int64_t* acc) {
  microkernel_i16i8(tile, nonzero, target, n_rules, cin, cout, w, acc);
}

template <typename TIn, typename TW, typename TAcc>
struct BlockJob {
  const TIn* in;
  const TW* weights;
  TAcc* out;
  const BlockedRuleBook* rules;
  int cin;
  int cout;
  const int* bounds;  ///< per-partition block ranges, size parts+1
  // Per-partition scratch, strided by partition index.
  TIn* tiles;
  std::uint8_t* flags;
  std::int32_t* targets;
};

/// One partition: gather -> microkernel over its contiguous block range.
template <typename TIn, typename TW, typename TAcc>
void run_partition(const BlockJob<TIn, TW, TAcc>& job, int t) {
  const auto cin = static_cast<std::size_t>(job.cin);
  const auto cout = static_cast<std::size_t>(job.cout);
  const auto u = static_cast<std::size_t>(t);
  TIn* tile = job.tiles + u * kGatherRows * cin;
  std::uint8_t* flags = job.flags + u * kGatherRows;
  std::int32_t* targets = job.targets + u * kGatherRows;
  const int volume = job.rules->kernel_volume();

  for (int b = job.bounds[t]; b < job.bounds[t + 1]; ++b) {
    const auto [row0, row1] = job.rules->block_rows(b);
    (void)row1;
    TAcc* acc = job.out + static_cast<std::size_t>(row0) * cout;
    for (int o = 0; o < volume; ++o) {
      const std::span<const Rule> bucket = job.rules->rules(b, o);
      if (bucket.empty()) continue;
      const TW* w = job.weights + static_cast<std::size_t>(o) * cin * cout;
      for (std::size_t base = 0; base < bucket.size(); base += kGatherRows) {
        const std::size_t n = std::min(kGatherRows, bucket.size() - base);
        for (std::size_t r = 0; r < n; ++r) {
          const Rule rule = bucket[base + r];
          const TIn* src = job.in + static_cast<std::size_t>(rule.in_row) * cin;
          TIn* dst = tile + r * cin;
          bool any = false;
          for (std::size_t c = 0; c < cin; ++c) {
            dst[c] = src[c];
            any |= (src[c] != TIn{});
          }
          flags[r] = any ? 1 : 0;
          targets[r] = rule.out_row - row0;
        }
        dispatch_microkernel(tile, flags, targets, n, job.cin, job.cout, w, acc);
      }
    }
  }
}

}  // namespace

// --- ScratchArena -------------------------------------------------------------

std::byte* ScratchArena::raw_take(std::size_t bytes, std::size_t align) {
  const std::size_t aligned = (used_ + align - 1) / align * align;
  high_water_ = std::max(high_water_, aligned + bytes);
  if (aligned + bytes <= slab_bytes_) {
    used_ = aligned + bytes;
    return slab_.get() + aligned;
  }
  // Chaos site: an arena grow is the allocation-heavy path's one heap
  // touch — injected failure here models allocation exhaustion mid-apply
  // (the arena itself stays consistent: nothing mutated yet).
  fault::maybe_throw("sparse.arena.grow");
  // Overflow: serve from a dedicated side slab so earlier spans stay valid;
  // reset() consolidates to the new high-water mark. used_ keeps advancing
  // as if the slab were large enough, so high_water_ records the cycle's
  // true total demand.
  overflow_.push_back(std::make_unique<std::byte[]>(bytes + align));
  ++grows_;
  compute_arena_grows_counter().inc();
  used_ = aligned + bytes;
  std::byte* raw = overflow_.back().get();
  const auto addr = reinterpret_cast<std::uintptr_t>(raw);
  return raw + (align - addr % align) % align;
}

void ScratchArena::reset() {
  if (high_water_ > slab_bytes_) {
    slab_ = std::make_unique<std::byte[]>(high_water_);
    slab_bytes_ = high_water_;
    ++grows_;
    compute_arena_grows_counter().inc();
  }
  overflow_.clear();
  used_ = 0;
  high_water_ = 0;
}

// --- counters -----------------------------------------------------------------

obs::Counter& compute_arena_grows_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "esca_compute_arena_grows_total", "ScratchArena heap allocations (every arena)");
  return counter;
}

// --- ComputeEngine ------------------------------------------------------------

ComputeEngine::ComputeEngine(ComputeOptions options) : threads_(options.threads) {}

int ComputeEngine::pick_parts(std::int64_t total_macs, int blocks) const {
  std::int64_t parts = threads_;
  if (parts <= 0) {
    parts = std::min<std::int64_t>(Executor::global().size(), total_macs / kMinMacsPerPart + 1);
  }
  return static_cast<int>(std::clamp<std::int64_t>(parts, 1, blocks));
}

template <typename TIn, typename TW, typename TAcc>
void ComputeEngine::run_blocks(std::span<const TIn> in_features, int cin,
                               const BlockedRuleBook& rules, std::span<const TW> weights,
                               TAcc* out, int cout) {
  const int blocks = rules.num_blocks();
  if (blocks == 0 || rules.total_rules() == 0) return;
  const std::int64_t total_macs =
      rules.total_rules() * static_cast<std::int64_t>(cin) * static_cast<std::int64_t>(cout);
  const int parts = pick_parts(total_macs, blocks);

  // Contiguous block ranges balanced by rule count (greedy cut at the
  // per-partition target). Every output row belongs to one partition, so
  // results do not depend on the partition count — only wall clock does.
  const std::span<int> bounds = arena_.take<int>(static_cast<std::size_t>(parts) + 1);
  const std::int64_t total_rules = rules.total_rules();
  bounds[0] = 0;
  std::int64_t seen = 0;
  int next_cut = 1;
  for (int b = 0; b < blocks && next_cut < parts; ++b) {
    seen += static_cast<std::int64_t>(rules.block_rules(b).size());
    while (next_cut < parts &&
           seen * parts >= total_rules * static_cast<std::int64_t>(next_cut)) {
      bounds[static_cast<std::size_t>(next_cut++)] = b + 1;
    }
  }
  for (int t = next_cut; t <= parts; ++t) bounds[static_cast<std::size_t>(t)] = blocks;

  const std::span<TIn> tiles =
      arena_.take<TIn>(static_cast<std::size_t>(parts) * kGatherRows *
                       static_cast<std::size_t>(cin));
  const std::span<std::uint8_t> flags =
      arena_.take<std::uint8_t>(static_cast<std::size_t>(parts) * kGatherRows);
  const std::span<std::int32_t> targets =
      arena_.take<std::int32_t>(static_cast<std::size_t>(parts) * kGatherRows);

  const BlockJob<TIn, TW, TAcc> job{in_features.data(), weights.data(), out,     &rules,
                                    cin,                cout,           bounds.data(),
                                    tiles.data(),       flags.data(),   targets.data()};
  Executor::global().parallel_for(parts, [&job](int t) { run_partition(job, t); });
}

void ComputeEngine::apply(const SparseTensor& input, const BlockedRuleBook& rules,
                          std::span<const float> weights, SparseTensor& output) {
  ESCA_REQUIRE(&input != &output, "in-place rulebook application is not supported");
  ESCA_REQUIRE(rules.num_out_rows() == output.size(),
               "blocked rulebook covers " << rules.num_out_rows() << " output rows, tensor has "
                                          << output.size());
  apply(input.raw_features(), input.channels(), rules, weights, output.raw_features(),
        output.channels());
}

void ComputeEngine::apply(std::span<const float> in_features, int cin,
                          const BlockedRuleBook& rules, std::span<const float> weights,
                          std::span<float> out_features, int cout) {
  ESCA_REQUIRE(cin > 0 && cout > 0, "channel counts must be positive");
  const auto volume = static_cast<std::size_t>(rules.kernel_volume());
  ESCA_REQUIRE(weights.size() == volume * static_cast<std::size_t>(cin) *
                                     static_cast<std::size_t>(cout),
               "weight size mismatch: got " << weights.size() << ", expected "
                                            << volume * static_cast<std::size_t>(cin) *
                                                   static_cast<std::size_t>(cout));
  ESCA_REQUIRE(out_features.size() ==
                   rules.num_out_rows() * static_cast<std::size_t>(cout),
               "output feature storage does not match the blocked rulebook");
  arena_.reset();
  run_blocks<float, float, float>(in_features, cin, rules, weights, out_features.data(), cout);
}

std::span<const std::int64_t> ComputeEngine::accumulate(std::span<const std::int16_t> in_features,
                                                        int cin, const BlockedRuleBook& rules,
                                                        std::span<const std::int8_t> weights,
                                                        int cout) {
  ESCA_REQUIRE(cin > 0 && cout > 0, "channel counts must be positive");
  const auto volume = static_cast<std::size_t>(rules.kernel_volume());
  ESCA_REQUIRE(weights.size() == volume * static_cast<std::size_t>(cin) *
                                     static_cast<std::size_t>(cout),
               "weight size mismatch: got " << weights.size() << ", expected "
                                            << volume * static_cast<std::size_t>(cin) *
                                                   static_cast<std::size_t>(cout));
  arena_.reset();
  const std::span<std::int64_t> acc =
      arena_.take<std::int64_t>(rules.num_out_rows() * static_cast<std::size_t>(cout));
  std::fill(acc.begin(), acc.end(), 0);
  run_blocks<std::int16_t, std::int8_t, std::int64_t>(in_features, cin, rules, weights,
                                                      acc.data(), cout);
  return acc;
}

ComputeEngine& default_compute_engine() {
  thread_local ComputeEngine engine;
  return engine;
}

}  // namespace esca::sparse
