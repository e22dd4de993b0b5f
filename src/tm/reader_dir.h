// Line reader directory: which CPUs may have a line in a read set.
//
// TCC conflict detection happens at commit: the committer walks its write
// set and must flag every other transaction that read one of the written
// lines.  Scanning every CPU's whole open-nesting stack for every line made
// that O(write-set x CPUs x depth) even when nobody read anything.  This
// directory inverts the read sets: per line, one sim::CpuMask bit per CPU.
//
// A transaction's first read of a line (its prev < 0 read-log append) sets
// the bit.  Nothing else sets it, and commit, abort and frame rollback leave
// it alone.  Runtime::flag_readers walks the CPUs whose bit is set and
// decides each flag from the transactions' own read_frame; a CPU where no
// transaction holds the line any more gets its bit cleared there.  So the
// set bits are a superset of the CPUs with a live reader (checked under
// TXCC_CHECKED), and a stale bit costs at most one visit, which clears it.
//
// Virtual addresses (sim/vaddr.h) are dense, so this is flat-array
// indexing, not hashing: idx = line - (kVaBase >> kLineShift).
#pragma once

#include <cstddef>
#include <vector>

#include "sim/config.h"
#include "sim/cpu_mask.h"
#include "sim/memsys.h"
#include "sim/vaddr.h"
#include "tm/audit.h"

namespace atomos {

class ReaderDir {
 public:
  void add(sim::LineAddr line, int cpu) {
    if (line < kLineBase) {
      audit::reader_dir_corrupt(line, cpu, "add below virtual heap");
      return;
    }
    const std::size_t i = index(line);
    if (i >= masks_.size()) masks_.resize(i + 1);
    masks_[i].set(cpu);
  }

  void clear(sim::LineAddr line, int cpu) {
    const std::size_t i = index(line);
    if (i < masks_.size()) masks_[i].clear(cpu);
  }

  /// Calls f(cpu) for every reader of `line` except `except` (the committer
  /// flagging its own write lines must not flag itself).  f may clear bits
  /// of `line`: the walk runs over a copy of the mask.
  template <class F>
  void for_each_reader_except(sim::LineAddr line, int except, F f) const {
    const std::size_t i = index(line);
    if (i >= masks_.size()) return;
    const sim::CpuMask readers = masks_[i];
    readers.for_each_except(except, f);
  }

  bool is_reader(sim::LineAddr line, int cpu) const {
    const std::size_t i = index(line);
    return i < masks_.size() && masks_[i].test(cpu);
  }

 private:
  static constexpr sim::LineAddr kLineBase = sim::kVaBase >> sim::Config::kLineShift;

  static std::size_t index(sim::LineAddr line) {
    return static_cast<std::size_t>(line - kLineBase);
  }

  std::vector<sim::CpuMask> masks_;  // [line - kLineBase]: reader-CPU bits
};

}  // namespace atomos
