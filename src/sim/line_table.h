// Per-line storage for simulated memory: one dense array per arena.
//
// Virtual lines (sim/vaddr.h) are small integers, so per-line state is an
// indexed load, not a hash probe.  But the three line-private arenas have
// fixed spans ahead of the data arena, and a workload uses only the bottom
// of each (fig5: at most 707 of the 49,846 lines from kVaBase to its data
// high-water line), so one array indexed from kVaBase would pay for the
// spans.  LineTable keeps one array per arena instead, indexed by the line's
// offset inside its own arena and grown on demand to that arena's
// high-water line.
//
// Only at() grows an array, and growing moves that arena's entries: no
// reference into the table may be held across an at() for another line.
// find() never grows and never moves anything.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/config.h"
#include "sim/vaddr.h"

namespace sim {

using LineAddr = std::uint64_t;

/// One past the last virtual line: the end of the last arena.
inline constexpr LineAddr kLineEnd =
    arena_limit(static_cast<MemClass>(kArenaCount - 1)) >> Config::kLineShift;

template <class T>
class LineTable {
 public:
  /// The entry of `line`, value-initialised on first use.  A line outside
  /// the virtual heap throws std::out_of_range: no simulated cell lives
  /// there, so an access to it is a caller's bug, never an entry to make.
  T& at(LineAddr line) {
    if (line - kFirst[0] >= kLineEnd - kFirst[0]) outside_heap();
    T* e = find(line);
    return e != nullptr ? *e : grow(line);
  }

  /// The entry of `line`, or null if at() has not reached it.  A line below
  /// the heap wraps to a huge index, and one past its end lands past the
  /// last arena's high-water line, so one bound check covers both.
  T* find(LineAddr line) {
    const std::size_t a = arena_of(line);
    std::vector<T>& v = arenas_[a];
    const std::size_t i = static_cast<std::size_t>(line - kFirst[a]);
    return i < v.size() ? &v[i] : nullptr;
  }
  const T* find(LineAddr line) const { return const_cast<LineTable*>(this)->find(line); }

 private:
  // First line of each arena, from sim/vaddr.h's arena table.
  static constexpr std::array<LineAddr, kArenaCount> kFirst = [] {
    std::array<LineAddr, kArenaCount> f{};
    for (std::size_t a = 0; a < kArenaCount; ++a)
      f[a] = arena_base(static_cast<MemClass>(a)) >> Config::kLineShift;
    return f;
  }();

  // The cold halves of at(), kept out of line so at() inlines into every
  // simulated access.
  [[noreturn, gnu::noinline]] static void outside_heap() {
    throw std::out_of_range("sim::LineTable: line outside the virtual heap");
  }
  [[gnu::noinline]] T& grow(LineAddr line) {
    const std::size_t a = arena_of(line);
    arenas_[a].resize(static_cast<std::size_t>(line - kFirst[a]) + 1);
    return arenas_[a].back();
  }

  static std::size_t arena_of(LineAddr line) {
    std::size_t a = 0;
    for (std::size_t k = 1; k < kArenaCount; ++k) a += line >= kFirst[k] ? 1 : 0;
    return a;
  }

  std::vector<T> arenas_[kArenaCount];
};

}  // namespace sim
