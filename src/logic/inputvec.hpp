// Wide primary-input vectors: bit i = PI i, any number of PIs.
//
// The original engine encoded every test vector in one std::uint64_t, which
// capped circuits (and full-scan views) at 64 primary inputs. InputVec lifts
// that ceiling: conceptually an infinite, zero-extended bit vector, stored as
// one inline word plus an overflow vector that is only touched past bit 63 —
// so every circuit that fit before still runs allocation-free, and vectors
// compare/hash by value regardless of how many trailing zero words a
// computation happened to materialize.
//
// The type is deliberately *not* implicitly convertible back to an integer;
// callers that know they are narrow use u64(). Bitwise &, |, ^ and shifts
// mirror the integer operators (there is no operator~ — complementing an
// infinite zero-extended vector is not meaningful; mask with mask(n) instead).
#pragma once

#include <algorithm>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <vector>

#include "util/prng.hpp"

namespace obd::logic {

class InputVec {
 public:
  InputVec() = default;
  /// Implicit on purpose: a uint64_t *is* a one-word input vector, and the
  /// conversion keeps every narrow call site (`eval(0b101)`, `{p, p}`
  /// aggregate tests) source-compatible.
  InputVec(std::uint64_t word) : w0_(word) {}  // NOLINT(runtime/explicit)

  // --- Word access -------------------------------------------------------
  /// Stored words (>= 1; trailing zero words are trimmed away, so two equal
  /// vectors always report the same count).
  std::size_t nwords() const { return 1 + hi_.size(); }
  /// Word `i` of the vector; zero beyond the stored words.
  std::uint64_t word(std::size_t i) const {
    if (i == 0) return w0_;
    return i <= hi_.size() ? hi_[i - 1] : 0;
  }
  void set_word(std::size_t i, std::uint64_t w) {
    if (i == 0) {
      w0_ = w;
      return;
    }
    if (i > hi_.size()) {
      if (w == 0) return;
      hi_.resize(i, 0);
    }
    hi_[i - 1] = w;
    if (w == 0) trim();
  }
  /// Low 64 bits. The narrow-interop escape hatch: only meaningful when the
  /// caller knows the vector fits one word.
  std::uint64_t u64() const { return w0_; }
  explicit operator std::uint64_t() const { return w0_; }

  // --- Bit access --------------------------------------------------------
  bool bit(std::size_t i) const { return (word(i >> 6) >> (i & 63)) & 1u; }
  void set_bit(std::size_t i, bool v = true) {
    const std::size_t w = i >> 6;
    const std::uint64_t m = 1ull << (i & 63);
    set_word(w, v ? (word(w) | m) : (word(w) & ~m));
  }

  bool any() const {
    if (w0_) return true;
    for (std::uint64_t w : hi_)
      if (w) return true;
    return false;
  }
  bool none() const { return !any(); }
  int popcount() const {
    int n = std::popcount(w0_);
    for (std::uint64_t w : hi_) n += std::popcount(w);
    return n;
  }

  // --- Whole-vector constructors ----------------------------------------
  /// Low `n_bits` bits set (the all-care mask of an n-PI circuit).
  static InputVec mask(std::size_t n_bits) {
    InputVec v;
    for (std::size_t w = 0; w * 64 < n_bits; ++w) {
      const std::size_t rest = n_bits - w * 64;
      v.set_word(w, rest >= 64 ? ~0ull : ((1ull << rest) - 1));
    }
    return v;
  }
  /// `n_bits` uniform random bits, consuming ceil(n_bits/64) PRNG draws —
  /// exactly one draw (the historical sequence) for any width <= 64.
  static InputVec random(std::size_t n_bits, util::Prng& prng) {
    InputVec v;
    if (n_bits == 0) return v;
    const std::size_t words = (n_bits + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) v.set_word(w, prng.next_u64());
    v.mask_to(n_bits);
    return v;
  }
  /// Bit i of the result = `value`, for i < n_bits (broadcast fill).
  static InputVec broadcast(bool value, std::size_t n_bits) {
    return value ? mask(n_bits) : InputVec{};
  }

  /// Clears every bit at position >= n_bits.
  void mask_to(std::size_t n_bits) {
    const std::size_t keep_words = (n_bits + 63) / 64;
    if (hi_.size() + 1 > keep_words)
      hi_.resize(keep_words > 0 ? keep_words - 1 : 0);
    if (n_bits == 0) {
      w0_ = 0;
      return;
    }
    if (n_bits & 63) {
      const std::uint64_t m = (1ull << (n_bits & 63)) - 1;
      set_word(keep_words - 1, word(keep_words - 1) & m);
    }
    trim();
  }

  // --- Bitwise ops (zero-extended; no operator~) -------------------------
  friend InputVec operator&(const InputVec& a, const InputVec& b) {
    return binop(a, b, [](std::uint64_t x, std::uint64_t y) { return x & y; });
  }
  friend InputVec operator|(const InputVec& a, const InputVec& b) {
    return binop(a, b, [](std::uint64_t x, std::uint64_t y) { return x | y; });
  }
  friend InputVec operator^(const InputVec& a, const InputVec& b) {
    return binop(a, b, [](std::uint64_t x, std::uint64_t y) { return x ^ y; });
  }
  InputVec& operator&=(const InputVec& o) { return *this = *this & o; }
  InputVec& operator|=(const InputVec& o) { return *this = *this | o; }
  InputVec& operator^=(const InputVec& o) { return *this = *this ^ o; }
  /// a & ~b without materializing an infinite complement.
  friend InputVec and_not(const InputVec& a, const InputVec& b) {
    return binop(a, b, [](std::uint64_t x, std::uint64_t y) { return x & ~y; });
  }

  InputVec operator<<(std::size_t shift) const {
    InputVec out;
    const std::size_t ws = shift >> 6, bs = shift & 63;
    const std::size_t n = nwords();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t w = word(i);
      if (!w) continue;
      out.set_word(i + ws, out.word(i + ws) | (w << bs));
      if (bs) out.set_word(i + ws + 1, out.word(i + ws + 1) | (w >> (64 - bs)));
    }
    return out;
  }
  InputVec operator>>(std::size_t shift) const {
    InputVec out;
    const std::size_t ws = shift >> 6, bs = shift & 63;
    const std::size_t n = nwords();
    for (std::size_t i = ws; i < n; ++i) {
      std::uint64_t w = word(i) >> bs;
      if (bs) w |= word(i + 1) << (64 - bs);
      out.set_word(i - ws, w);
    }
    return out;
  }
  /// Bits [offset, offset + width) as a fresh vector.
  InputVec slice(std::size_t offset, std::size_t width) const {
    InputVec out = *this >> offset;
    out.mask_to(width);
    return out;
  }

  // --- Comparison / hashing ---------------------------------------------
  friend bool operator==(const InputVec& a, const InputVec& b) {
    const std::size_t n = std::max(a.nwords(), b.nwords());
    for (std::size_t w = 0; w < n; ++w)
      if (a.word(w) != b.word(w)) return false;
    return true;
  }
  /// Numeric order (zero-extended): highest differing word decides.
  friend std::strong_ordering operator<=>(const InputVec& a,
                                          const InputVec& b) {
    const std::size_t n = std::max(a.nwords(), b.nwords());
    for (std::size_t w = n; w-- > 0;) {
      const std::uint64_t x = a.word(w), y = b.word(w);
      if (x != y) return x <=> y;
    }
    return std::strong_ordering::equal;
  }

  /// FNV-1a over the trimmed words; equal vectors hash equally no matter
  /// how they were built.
  std::size_t hash() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const std::size_t n = nwords();
    for (std::size_t w = 0; w < n; ++w) {
      const std::uint64_t v = word(w);
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ull;
      }
    }
    return static_cast<std::size_t>(h);
  }

  /// Hex dump, most-significant word first (gtest failure messages).
  friend std::ostream& operator<<(std::ostream& os, const InputVec& v) {
    os << "0x";
    for (std::size_t w = v.nwords(); w-- > 0;) {
      char buf[17];
      std::snprintf(buf, sizeof buf, w + 1 == v.nwords() ? "%llx" : "%016llx",
                    static_cast<unsigned long long>(v.word(w)));
      os << buf;
    }
    return os;
  }

 private:
  template <typename Op>
  static InputVec binop(const InputVec& a, const InputVec& b, Op op) {
    InputVec out;
    const std::size_t n = std::max(a.nwords(), b.nwords());
    for (std::size_t w = n; w-- > 0;)  // high-to-low: one resize at most
      out.set_word(w, op(a.word(w), b.word(w)));
    return out;
  }

  void trim() {
    while (!hi_.empty() && hi_.back() == 0) hi_.pop_back();
  }

  std::uint64_t w0_ = 0;             // bits 0..63, always inline
  std::vector<std::uint64_t> hi_;    // bits 64.. (trimmed of trailing zeros)
};

/// Calls fn(i) for every set bit i < n_bits, word-strided: a one-word
/// vector costs a single countr_zero loop, a wide one costs one pass per
/// 64 bits. The shared kernel of the engine's lane-scatter and broadcast
/// paths.
template <typename Fn>
void for_each_set_bit(const InputVec& v, std::size_t n_bits, Fn fn) {
  const std::size_t words = std::min(v.nwords(), (n_bits + 63) / 64);
  for (std::size_t wi = 0; wi < words; ++wi) {
    std::uint64_t w = v.word(wi);
    while (w) {
      const std::size_t i =
          wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      if (i < n_bits) fn(i);
    }
  }
}

}  // namespace obd::logic

template <>
struct std::hash<obd::logic::InputVec> {
  std::size_t operator()(const obd::logic::InputVec& v) const {
    return v.hash();
  }
};
