#include "mc/controller.h"

#include <algorithm>

namespace mc {

int Controller::pick(const std::vector<int>& runnable) {
  // Default policy, reproduced scheduler-side: smallest virtual clock,
  // lowest cpu id on ties.  With no forced prefix this makes the decision
  // tree identical to the engine's own min-clock schedule.
  std::size_t def = 0;
  for (std::size_t i = 1; i < runnable.size(); ++i) {
    const std::uint64_t ci = eng_.cpu_clock(runnable[i]);
    const std::uint64_t cd = eng_.cpu_clock(runnable[def]);
    if (ci < cd) def = i;
  }

  std::size_t chosen = def;
  if (runnable.size() >= 2) {
    const std::size_t ord = capture_.executed.choices.size();
    if (ord < forced_.choices.size()) {
      const int want = forced_.choices[ord];
      if (want >= 0 && static_cast<std::size_t>(want) < runnable.size()) {
        chosen = static_cast<std::size_t>(want);
      } else {
        capture_.diverged = true;  // the tree changed under this prefix
      }
    }
    capture_.executed.choices.push_back(static_cast<int>(chosen));
    RunCapture::Branch b;
    b.ord = ord;
    b.quantum = capture_.quanta.size();
    b.runnable = runnable;
    b.chosen_index = static_cast<int>(chosen);
    capture_.branches.push_back(std::move(b));
  }

  RunCapture::Quantum q;
  q.cpu = runnable[chosen];
  capture_.quanta.push_back(std::move(q));
  return runnable[chosen];
}

void Controller::on_access(int cpu, sim::LineAddr line, bool /*is_write*/) {
  if (capture_.quanta.empty()) return;
  RunCapture::Quantum& q = capture_.quanta.back();
  (void)cpu;
  if (std::find(q.lines.begin(), q.lines.end(), line) == q.lines.end()) {
    q.lines.push_back(line);
  }
}

void Controller::on_txn_sets(int /*cpu*/, bool committed, bool open,
                             const std::vector<sim::LineAddr>& /*reads*/,
                             const std::vector<sim::LineAddr>& writes) {
  if (capture_.quanta.empty()) return;
  RunCapture::Quantum& q = capture_.quanta.back();
  if (!open) q.boundary = true;
  // A commit's write broadcast is what other cpus can conflict with; fold
  // the full write set into the committing quantum's footprint.
  if (!committed) return;
  for (const sim::LineAddr line : writes) {
    if (std::find(q.lines.begin(), q.lines.end(), line) == q.lines.end()) {
      q.lines.push_back(line);
    }
  }
}

void Controller::note_table(const void* table) {
  if (capture_.quanta.empty()) return;
  RunCapture::Quantum& q = capture_.quanta.back();
  if (std::find(q.tables.begin(), q.tables.end(), table) == q.tables.end()) {
    q.tables.push_back(table);
  }
}

void Controller::on_sem(const atomos::SemEvent& e) {
  using Kind = atomos::SemEvent::Kind;
  // Violations are not lock-table traffic: they leave the quantum's table
  // footprint and the oracle's lock ledger alone.  A settle touches no
  // table: only the ledger needs it.
  if (e.kind == Kind::kViolation) return;
  if (e.kind != Kind::kSettle) note_table(e.set);
  if (oracle_ != nullptr) oracle_->on_lock_event(e);
}

}  // namespace mc
