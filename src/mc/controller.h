// txmc schedule controller.
//
// A Controller is the bridge between one simulated run and the model
// checker: it is simultaneously
//
//  * the engine's SchedulerHook — at every scheduling decision it picks the
//    next runnable cpu itself (never deferring to the engine), replaying a
//    forced prefix of choices and continuing with the default min-clock
//    policy past it.  Every BRANCHING decision (>= 2 runnable cpus) is
//    appended to the executed Schedule, so any run is replayable from its
//    encoded string alone;
//  * the runtime's McObserver — per-quantum line footprints (reads/writes)
//    feed the explorer's dependence-based reduction, and the lock-table and
//    settle events of the semantic layer (on_sem) are forwarded to the
//    Oracle, whose lock ledger judges them.
//
// The controller is single-run: construct, install, run the engine, then
// harvest capture()/executed().
#pragma once

#include <cstddef>
#include <vector>

#include "mc/oracle.h"
#include "mc/schedule.h"
#include "sim/engine.h"
#include "tm/runtime.h"

namespace mc {

/// Everything the explorer needs to know about one executed run.
struct RunCapture {
  /// One scheduling quantum: the chosen cpu plus the memory lines and
  /// collection tables it touched before the next decision.
  struct Quantum {
    int cpu = -1;
    std::vector<sim::LineAddr> lines;
    std::vector<const void*> tables;
    /// A TOP-LEVEL transaction finished (committed or aborted) here.  Such
    /// boundaries reorder observably even with an empty memory footprint —
    /// the serialization windows the oracle checks are delimited by them —
    /// so the explorer treats them as dependent with everything.
    bool boundary = false;
  };
  /// One branching decision (>= 2 runnable cpus).
  struct Branch {
    std::size_t ord = 0;      ///< index within the executed Schedule
    std::size_t quantum = 0;  ///< index of the quantum this pick started
    std::vector<int> runnable;
    int chosen_index = 0;
  };
  std::vector<Quantum> quanta;
  std::vector<Branch> branches;
  Schedule executed;      ///< one choice per branching decision
  bool diverged = false;  ///< forced prefix referenced a vanished branch
};

class Controller final : public sim::SchedulerHook, public atomos::Runtime::McObserver {
 public:
  Controller(sim::Engine& eng, Oracle* oracle, Schedule forced)
      : eng_(eng), oracle_(oracle), forced_(std::move(forced)) {}

  // ---- sim::SchedulerHook ----
  int pick(const std::vector<int>& runnable) override;

  // ---- atomos::Runtime::McObserver ----
  void on_access(int cpu, sim::LineAddr line, bool is_write) override;
  void on_txn_sets(int cpu, bool committed, bool open,
                   const std::vector<sim::LineAddr>& reads,
                   const std::vector<sim::LineAddr>& writes) override;
  void on_sem(const atomos::SemEvent& e) override;

  const RunCapture& capture() const { return capture_; }
  const Schedule& executed() const { return capture_.executed; }
  bool diverged() const { return capture_.diverged; }

 private:
  void note_table(const void* table);

  sim::Engine& eng_;
  Oracle* oracle_;
  Schedule forced_;
  RunCapture capture_;
};

}  // namespace mc
