// TAPE-style conflict profiling (paper Section 6.3, citing Chafi et al.'s
// Transactional Application Profiling Environment).
//
// Data structures may label their hot cells (via the optional name argument
// of atomos::Shared); when profiling is enabled, every violation a committer
// inflicts is attributed to the labelled cell(s) on the line that caused it,
// producing the "which object is the source of lost work" report the
// paper's authors used to find District.nextOrder and friends.
//
// Labels are recorded PER CELL, not per line.  The original per-line map was
// last-writer-wins: when two labelled cells were co-resident on one virtual
// line, only the later label survived — which is exactly how the fig4
// feedback storm got misattributed to "Warehouse.nextHistory" when the hot
// cell was historyTable's table pointer.  find() now reports every labelled
// cell resident on the line, joined with '+', so txtrace/profile reports
// can't hide a co-resident culprit.  (With arena-segregated placement —
// sim/vaddr.h — labelled metadata cells get private lines and multi-label
// lines should no longer occur; if one shows up in a report, that is itself
// a layout bug worth seeing.)
//
// One Profile per atomos::Runtime (accessed as Runtime::profile()), so
// concurrent simulations on different host threads — the harness driver runs
// one figure point per worker thread — keep fully independent label maps.
// There is deliberately no process-global instance: profiling state was the
// last global mutable singleton in the TM layer, and de-globalizing it is
// what makes host-parallel sweeps bit-identical to serial ones.
//
// ORDERING CONTRACT (labels are recorded only while profiling is enabled):
//   1. construct the sim::Engine, then the atomos::Runtime;
//   2. call Runtime::profile().enable(true) BEFORE constructing the labelled
//      objects — a note_range() issued while profiling is disabled silently
//      records nothing, so enabling profiling only after object setup yields
//      an empty label map and every violation attributes to "<unnamed>";
//   3. construct the labelled Shared cells (object setup);
//   4. Engine::run().
// Labelling from inside a running simulation (a worker fiber constructing a
// named Shared cell while profiling is enabled) is flagged by the
// TXCC_CHECKED auditor (late-profile-label): the label map is host-side
// state that is not rolled back if the labelling transaction aborts, and a
// label attached mid-run attributes only the remainder of the run.
#pragma once

#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/memsys.h"

namespace atomos {

class Profile {
 public:
  Profile() = default;
  Profile(const Profile&) = delete;
  Profile& operator=(const Profile&) = delete;

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Records one labelled cell at [addr, addr+len) — call from object setup,
  /// after enable(true) and before Engine::run() (see the ordering contract
  /// above; when profiling is disabled this records nothing).
  void note_range(std::uintptr_t addr, std::size_t len, const char* name) {
    if (!enabled_) return;
    const std::size_t idx = cells_.size();
    cells_.push_back(Cell{addr, len, name});
    const sim::LineAddr first = sim::line_of(addr);
    const sim::LineAddr last = sim::line_of(addr + (len == 0 ? 0 : len - 1));
    for (sim::LineAddr l = first; l <= last; ++l) {
      lines_[l].push_back(idx);
      joined_.erase(l);  // invalidate any cached join for this line
    }
  }

  /// The label covering `line`, or nullptr if no labelled cell is resident.
  /// When several distinctly-named cells share the line, the result is every
  /// name in construction order joined with '+' (e.g.
  /// "historyTable.table+Warehouse.nextHistory").  The returned pointer
  /// stays valid for the Profile's lifetime.
  const char* find(sim::LineAddr line) const {
    auto it = lines_.find(line);
    if (it == lines_.end()) return nullptr;
    // Fast path: one resident labelled cell (the norm under arena layout).
    if (it->second.size() == 1) return cells_[it->second.front()].name;
    auto jt = joined_.find(line);
    if (jt == joined_.end()) jt = joined_.emplace(line, join(it->second)).first;
    return jt->second.c_str();
  }

  void clear() {
    cells_.clear();
    lines_.clear();
    joined_.clear();
  }

  /// Visits every (line, label) pair — used to dump the label map into a
  /// trace at teardown.  Iteration order is unspecified; sort downstream.
  template <class F>
  void for_each(F f) const {
    for (const auto& [line, idxs] : lines_) f(line, find(line));
  }

 private:
  struct Cell {
    std::uintptr_t addr;
    std::size_t len;
    const char* name;
  };

  /// Joins the distinct names of the cells in `idxs` (construction order,
  /// first occurrence wins) with '+'.
  std::string join(const std::vector<std::size_t>& idxs) const {
    std::string out;
    for (std::size_t i : idxs) {
      const char* name = cells_[i].name;
      bool seen = false;
      for (std::size_t j : idxs) {
        if (j >= i) break;
        if (std::strcmp(cells_[j].name, name) == 0) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      if (!out.empty()) out += '+';
      out += name;
    }
    return out;
  }

  bool enabled_ = false;
  std::vector<Cell> cells_;  // every labelled cell, in construction order
  std::unordered_map<sim::LineAddr, std::vector<std::size_t>> lines_;
  mutable std::unordered_map<sim::LineAddr, std::string> joined_;  // lazy join cache
};

}  // namespace atomos
