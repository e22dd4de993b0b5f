// Fixed-width bitmask over virtual CPU ids.
//
// Config::kMaxCpus is 128, so any "set of CPUs" (MESI sharer sets, reader
// directories) needs more than one machine word.  CpuMask packs the bits
// into kWords uint64 words and walks set members with countr_zero, so a
// sparse set costs O(set bits) plus one load per word — raising the CPU
// ceiling does not tax simulations that use 8 CPUs.
#pragma once

#include <bit>
#include <cstdint>

#include "sim/config.h"

namespace sim {

struct CpuMask {
  static constexpr int kWords = (Config::kMaxCpus + 63) / 64;

  std::uint64_t w[kWords] = {};

  static constexpr CpuMask one(int cpu) {
    CpuMask m;
    m.w[cpu >> 6] = std::uint64_t{1} << (cpu & 63);
    return m;
  }

  constexpr void set(int cpu) { w[cpu >> 6] |= std::uint64_t{1} << (cpu & 63); }
  constexpr void clear(int cpu) { w[cpu >> 6] &= ~(std::uint64_t{1} << (cpu & 63)); }
  constexpr bool test(int cpu) const {
    return ((w[cpu >> 6] >> (cpu & 63)) & 1u) != 0;
  }
  constexpr bool none() const {
    for (int i = 0; i < kWords; ++i)
      if (w[i] != 0) return false;
    return true;
  }
  constexpr bool any() const { return !none(); }
  constexpr void reset() {
    for (int i = 0; i < kWords; ++i) w[i] = 0;
  }

  /// Calls f(cpu) for every set bit, ascending; zero words are skipped and
  /// each set bit is found with countr_zero, never a per-CPU scan.
  template <class F>
  void for_each(F f) const {
    for (int wi = 0; wi < kWords; ++wi) {
      std::uint64_t m = w[wi];
      while (m != 0) {
        f(wi * 64 + std::countr_zero(m));
        m &= m - 1;
      }
    }
  }

  /// for_each with one CPU excluded — the commit broadcast's walk over a
  /// line's readers, all but the committer (tm/reader_dir.h).  The excluded
  /// bit is masked out of its word up front, so members are walked with the
  /// same branch-free countr_zero loop and callers drop their per-member
  /// `if (c != me)` test.
  template <class F>
  void for_each_except(int skip, F f) const {
    const int skip_word = skip >> 6;
    const std::uint64_t skip_bit = std::uint64_t{1} << (skip & 63);
    for (int wi = 0; wi < kWords; ++wi) {
      std::uint64_t m = w[wi];
      if (wi == skip_word) m &= ~skip_bit;
      while (m != 0) {
        f(wi * 64 + std::countr_zero(m));
        m &= m - 1;
      }
    }
  }
};

}  // namespace sim
