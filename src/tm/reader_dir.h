// Line reader directory: which CPUs may have a line in a read set.
//
// TCC conflict detection happens at commit: the committer walks its write
// set and must flag every other transaction that read one of the written
// lines.  Scanning every CPU's whole open-nesting stack for every line made
// that O(write-set x CPUs x depth) even when nobody read anything.  This
// directory inverts the read sets: per line, one sim::CpuMask bit per CPU.
//
// A transaction's first read of a line (its read-set insertion) sets the
// bit.  Nothing else sets it, and commit and abort leave it alone.
// Runtime::flag_readers walks the CPUs whose bit is set and decides each
// flag from the transactions' own read_set; a CPU where no transaction
// holds the line any more gets its bit cleared there.  So the
// set bits are a superset of the CPUs with a live reader (checked under
// TXCC_CHECKED), and a stale bit costs at most one visit, which clears it.
//
// Virtual lines are dense per arena, so the masks live in a sim::LineTable:
// one indexed load per line, not a hash probe.
#pragma once

#include "sim/cpu_mask.h"
#include "sim/line_table.h"

namespace atomos {

class ReaderDir {
 public:
  /// Sets `cpu`'s bit.  A line outside the virtual heap throws (LineTable).
  void add(sim::LineAddr line, int cpu) { masks_.at(line).set(cpu); }

  void clear(sim::LineAddr line, int cpu) {
    if (sim::CpuMask* m = masks_.find(line)) m->clear(cpu);
  }

  /// Calls f(cpu) for every reader of `line` except `except` (the committer
  /// flagging its own write lines must not flag itself).  f may clear bits
  /// of `line`: the walk runs over a copy of the mask.
  template <class F>
  void for_each_reader_except(sim::LineAddr line, int except, F f) const {
    const sim::CpuMask* m = masks_.find(line);
    if (m == nullptr) return;
    const sim::CpuMask readers = *m;
    readers.for_each_except(except, f);
  }

  bool is_reader(sim::LineAddr line, int cpu) const {
    const sim::CpuMask* m = masks_.find(line);
    return m != nullptr && m->test(cpu);
  }

 private:
  sim::LineTable<sim::CpuMask> masks_;  // reader-CPU bits per line
};

}  // namespace atomos
