// Helper for directed two-transaction conflict schedules, used by the
// Table 1/2 (Map), Table 4/5 (SortedMap) and Table 7/8 (Channel) tests.
//
// Runs READER on CPU0 as a long transaction (observe, then compute) and
// WRITER on CPU1 committing in the middle of the reader's window, then
// reports whether the reader was doomed.  Each paper-table cell asserts
// conflict() or commute() for one (read-op, write-op) pair.
#pragma once

#include <functional>

#include "tm/runtime.h"

namespace tcc::testing {

struct ScheduleResult {
  int reader_attempts = 0;
  std::uint64_t reader_semantic_violations = 0;
  std::uint64_t reader_violations = 0;  // memory-level
  bool conflicted() const {
    return reader_semantic_violations + reader_violations > 0;
  }
};

/// `reader` runs inside CPU0's transaction each attempt; `writer` runs
/// inside CPU1's transaction once, committing while the reader computes.
inline ScheduleResult run_schedule(sim::Engine& eng,
                                   const std::function<void()>& reader,
                                   const std::function<void()>& writer,
                                   std::uint64_t writer_delay = 1000,
                                   std::uint64_t reader_tail = 8000) {
  ScheduleResult r;
  eng.spawn([&] {
    atomos::atomically([&] {
      r.reader_attempts++;
      reader();
      if (atomos::work(reader_tail)) return;  // long tail: the writer commits inside it
    });
  });
  eng.spawn([&] {
    (void)atomos::work(writer_delay);  // land mid-reader-tail
    atomos::atomically([&] { writer(); });
  });
  eng.run();
  r.reader_semantic_violations = eng.stats().cpu(0).semantic_violations;
  r.reader_violations = eng.stats().cpu(0).violations;
  return r;
}

inline sim::Config tcc_cfg(int cpus) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = sim::Mode::kTcc;
  return c;
}

}  // namespace tcc::testing
