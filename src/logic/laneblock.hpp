// Multi-word pattern lanes: a LaneBlock<W> bundles W 64-bit words, i.e.
// 64*W independent simulation lanes, and gives them the handful of bitwise
// operators the fault simulators need. All hot loops in the bit-parallel
// engine are pure AND/OR/XOR/NOT over such bundles, so widening the engine
// past one word is entirely a matter of running these ops over W words at a
// time.
//
// Two backends share one interface:
//   - an AVX2 path (compiled when the translation unit is built with
//     -mavx2 / -march=native; see the OBD_NATIVE CMake option) processing
//     256 bits per instruction for W % 4 == 0;
//   - a portable scalar loop for everything else. With W fixed at compile
//     time the loop is fully unrolled, so even the portable path keeps the
//     vector units fed on compilers that auto-vectorize.
//
// Lane numbering is word-major: lane L lives at bit (L & 63) of word
// (L >> 6). A one-word LaneBlock is bit-for-bit the engine's historical
// std::uint64_t lane word, which is what keeps detection results identical
// across lane widths.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "logic/gate.hpp"

namespace obd::logic {

template <std::size_t W>
struct LaneBlock {
  std::uint64_t w[W];

  static LaneBlock load(const std::uint64_t* p) {
    LaneBlock b;
#if defined(__AVX2__)
    if constexpr (W % 4 == 0) {
      for (std::size_t i = 0; i < W; i += 4)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(b.w + i),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)));
      return b;
    }
#endif
    for (std::size_t i = 0; i < W; ++i) b.w[i] = p[i];
    return b;
  }

  void store(std::uint64_t* p) const {
#if defined(__AVX2__)
    if constexpr (W % 4 == 0) {
      for (std::size_t i = 0; i < W; i += 4)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(p + i),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i)));
      return;
    }
#endif
    for (std::size_t i = 0; i < W; ++i) p[i] = w[i];
  }

  static LaneBlock splat(std::uint64_t v) {
    LaneBlock b;
    for (std::size_t i = 0; i < W; ++i) b.w[i] = v;
    return b;
  }

  friend LaneBlock operator&(const LaneBlock& a, const LaneBlock& b) {
    LaneBlock o;
#if defined(__AVX2__)
    if constexpr (W % 4 == 0) {
      for (std::size_t i = 0; i < W; i += 4)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(o.w + i),
            _mm256_and_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.w + i)),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(b.w + i))));
      return o;
    }
#endif
    for (std::size_t i = 0; i < W; ++i) o.w[i] = a.w[i] & b.w[i];
    return o;
  }

  friend LaneBlock operator|(const LaneBlock& a, const LaneBlock& b) {
    LaneBlock o;
#if defined(__AVX2__)
    if constexpr (W % 4 == 0) {
      for (std::size_t i = 0; i < W; i += 4)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(o.w + i),
            _mm256_or_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.w + i)),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(b.w + i))));
      return o;
    }
#endif
    for (std::size_t i = 0; i < W; ++i) o.w[i] = a.w[i] | b.w[i];
    return o;
  }

  friend LaneBlock operator^(const LaneBlock& a, const LaneBlock& b) {
    LaneBlock o;
#if defined(__AVX2__)
    if constexpr (W % 4 == 0) {
      for (std::size_t i = 0; i < W; i += 4)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(o.w + i),
            _mm256_xor_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.w + i)),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(b.w + i))));
      return o;
    }
#endif
    for (std::size_t i = 0; i < W; ++i) o.w[i] = a.w[i] ^ b.w[i];
    return o;
  }

  friend LaneBlock operator~(const LaneBlock& a) {
#if defined(__AVX2__)
    if constexpr (W % 4 == 0) {
      LaneBlock o;
      const __m256i ones = _mm256_set1_epi64x(-1);
      for (std::size_t i = 0; i < W; i += 4)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(o.w + i),
            _mm256_xor_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.w + i)),
                ones));
      return o;
    }
#endif
    LaneBlock o;
    for (std::size_t i = 0; i < W; ++i) o.w[i] = ~a.w[i];
    return o;
  }
};

/// out[0..W) = gate function of the W-word input bundles. The wide
/// counterpart of gate_eval_words; a LaneBlock<1> call computes exactly the
/// same bits.
template <std::size_t W>
inline void gate_eval_block(GateType t, const std::uint64_t* const* in,
                            std::uint64_t* out) {
  using L = LaneBlock<W>;
  const auto A = [&](int k) { return L::load(in[k]); };
  switch (t) {
    case GateType::kBuf: A(0).store(out); return;
    case GateType::kInv: (~A(0)).store(out); return;
    case GateType::kNand2: (~(A(0) & A(1))).store(out); return;
    case GateType::kNand3: (~(A(0) & A(1) & A(2))).store(out); return;
    case GateType::kNand4: (~(A(0) & A(1) & A(2) & A(3))).store(out); return;
    case GateType::kNor2: (~(A(0) | A(1))).store(out); return;
    case GateType::kNor3: (~(A(0) | A(1) | A(2))).store(out); return;
    case GateType::kNor4: (~(A(0) | A(1) | A(2) | A(3))).store(out); return;
    case GateType::kAnd2: (A(0) & A(1)).store(out); return;
    case GateType::kOr2: (A(0) | A(1)).store(out); return;
    case GateType::kXor2: (A(0) ^ A(1)).store(out); return;
    case GateType::kXnor2: (~(A(0) ^ A(1))).store(out); return;
    case GateType::kAoi21: (~((A(0) & A(1)) | A(2))).store(out); return;
    case GateType::kAoi22:
      (~((A(0) & A(1)) | (A(2) & A(3)))).store(out);
      return;
    case GateType::kOai21: (~((A(0) | A(1)) & A(2))).store(out); return;
  }
}

/// Runtime-width dispatch to the compile-time kernels (1, 2, 4 and 8 words,
/// the scheduler's 64/128/256/512-lane blocks). Other widths fall back to a
/// word-at-a-time loop (correct, unfused).
inline void gate_eval_lanes(GateType t, const std::uint64_t* const* in,
                            std::uint64_t* out, std::size_t n_words) {
  switch (n_words) {
    case 1: gate_eval_block<1>(t, in, out); return;
    case 2: gate_eval_block<2>(t, in, out); return;
    case 4: gate_eval_block<4>(t, in, out); return;
    case 8: gate_eval_block<8>(t, in, out); return;
    default: {
      std::uint64_t tmp[8];
      const int arity = gate_arity(t);
      for (std::size_t w = 0; w < n_words; ++w) {
        for (int k = 0; k < arity; ++k) tmp[k] = in[k][w];
        out[w] = gate_eval_words(t, tmp);
      }
      return;
    }
  }
}

}  // namespace obd::logic
