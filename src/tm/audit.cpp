#include "tm/audit.h"

#if defined(TXCC_CHECKED) && TXCC_CHECKED

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "sim/vaddr.h"
#include "tm/lock_ledger.h"
#include "tm/runtime.h"
#include "trace/tracer.h"

namespace atomos::audit {
namespace {

// Cap what we echo/retain so a pathological workload cannot drown the run;
// counters keep exact totals regardless.
constexpr std::size_t kMaxStderrReports = 16;
constexpr std::size_t kMaxKeptReports = 4096;

struct State {
  // Semantic-lock ledger, shared with the txmc oracle.
  LockLedger locks;
  // In-progress abort-handler runs, tracked PER CPU (handler transactions
  // tick and yield, so scopes of different cpus interleave; on one cpu they
  // still nest when a compensation itself aborts): the sites whose
  // compensation already ran in that scope, and which of them were already
  // reported as duplicates.
  struct AbortScope {
    TxnId id;
    std::unordered_set<const void*> ran;       // committed handler attempts
    std::vector<const void*> attempt;          // in-flight handler attempt
    std::unordered_set<const void*> reported;
  };
  std::unordered_map<int, std::vector<AbortScope>> abort_scopes;
  std::array<std::uint64_t, static_cast<std::size_t>(Check::kChecks)> counts{};
  std::vector<std::string> findings;
};

// thread_local, matching the one-Runtime-per-thread rule (all fibers of an
// engine share the host thread, so they share this ledger).
State& st() {
  thread_local State s;
  return s;
}

void report(Check c, std::string msg) {
  State& s = st();
  s.counts[static_cast<std::size_t>(c)]++;
  if (s.findings.size() < kMaxStderrReports) {
    std::fprintf(stderr, "[txcheck] %s\n", msg.c_str());
  }
  if (s.findings.size() < kMaxKeptReports) s.findings.push_back(std::move(msg));
}

std::string id_str(const TxnId& id) {
  return "txn(cpu=" + std::to_string(id.cpu) +
         ", inc=" + std::to_string(id.incarnation) + ")";
}

std::string ptr_str(const void* p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%p", p);
  return buf;
}

}  // namespace

void begin_simulation() {
  State& s = st();
  s.locks.clear();
  s.abort_scopes.clear();
}

void reset() {
  begin_simulation();
  State& s = st();
  s.counts.fill(0);
  s.findings.clear();
  sim::va_foreign_alloc_reset();
}

std::uint64_t count(Check c) {
  // Detected at the sim layer (sim/vaddr.h) so the allocator need not link
  // against the TM auditor; surfaced through the common Check interface.
  if (c == Check::kForeignVaAlloc) return sim::va_foreign_alloc_count();
  return st().counts[static_cast<std::size_t>(c)];
}

std::uint64_t total() {
  std::uint64_t n = sim::va_foreign_alloc_count();
  for (const auto c : st().counts) n += c;
  return n;
}

const std::vector<std::string>& reports() { return st().findings; }

// ---- semantic-layer events ----

namespace {

void compensation_run(int cpu, const void* site) {
  State& s = st();
  auto it = s.abort_scopes.find(cpu);
  if (it == s.abort_scopes.end() || it->second.empty()) return;  // not audited
  State::AbortScope& scope = it->second.back();
  const bool seen =
      scope.ran.count(site) != 0 ||
      std::find(scope.attempt.begin(), scope.attempt.end(), site) != scope.attempt.end();
  if (!seen) {
    scope.attempt.push_back(site);  // counted only if this attempt commits
    return;
  }
  if (scope.reported.insert(site).second) {
    report(Check::kDoubleCompensation,
           id_str(scope.id) + " ran the compensation for collection " +
               ptr_str(site) +
               " more than once in a single abort: compensations are not "
               "idempotent, the second run corrupts committed state");
  }
}

}  // namespace

void on_sem(const SemEvent& e) {
  if (e.kind == SemEvent::Kind::kCompensation) {
    compensation_run(e.owner.cpu, e.set);
    return;
  }
  const std::optional<LockLedger::Finding> f = st().locks.apply(e);
  if (!f) return;
  if (f->kind == LockLedger::Finding::Kind::kLeak) {
    report(Check::kLockLeak,
           id_str(f->owner) + " settled still holding " + std::to_string(f->locks) +
               " semantic lock(s) across " + std::to_string(f->sets) +
               " table(s), e.g. table " + ptr_str(f->set));
  } else {
    report(Check::kDoubleRelease,
           id_str(f->owner) + " released a semantic lock it does not hold in table " +
               ptr_str(f->set) + " (double release, or release without acquire)");
  }
}

// ---- compensation scoping ----

void abort_scope_begin(const TxnId& id) {
  st().abort_scopes[id.cpu].push_back(State::AbortScope{id, {}, {}, {}});
}

void abort_scope_end(int cpu) {
  State& s = st();
  auto it = s.abort_scopes.find(cpu);
  if (it == s.abort_scopes.end() || it->second.empty()) return;
  it->second.pop_back();
  if (it->second.empty()) s.abort_scopes.erase(it);
}

void compensation_handler_committed(int cpu) {
  State& s = st();
  auto it = s.abort_scopes.find(cpu);
  if (it == s.abort_scopes.end() || it->second.empty()) return;
  State::AbortScope& scope = it->second.back();
  for (const void* site : scope.attempt) scope.ran.insert(site);
  scope.attempt.clear();
}

void compensation_handler_aborted(int cpu) {
  // The handler transaction rolled back: its compensation never happened.
  State& s = st();
  auto it = s.abort_scopes.find(cpu);
  if (it != s.abort_scopes.end() && !it->second.empty()) it->second.back().attempt.clear();
}

// ---- transaction lifecycle ----

void check_txn_sets(const detail::Txn& t) {
  const TxnId id{t.cpu, t.incarnation};
  if (t.write_idx.size() != t.writes.size()) {
    report(Check::kSetCorruption,
           id_str(id) + " write-set index has " + std::to_string(t.write_idx.size()) +
               " entries but redo log has " + std::to_string(t.writes.size()));
  }
  bool idx_reported = false;
  t.write_idx.for_each([&](std::uintptr_t addr, const std::uint32_t& idx) {
    if (idx_reported) return;
    if (idx >= t.writes.size() || t.writes[idx].addr != addr) {
      report(Check::kSetCorruption,
             id_str(id) + " write-set index entry for " +
                 ptr_str(reinterpret_cast<const void*>(addr)) +
                 " does not match its redo-log slot");
      idx_reported = true;  // one detailed report per commit is enough
    }
  });
  for (const auto& u : t.write_undo) {
    if (u.idx >= t.writes.size()) {
      report(Check::kSetCorruption,
             id_str(id) + " write-undo entry points past the redo log");
      break;
    }
  }
  if (static_cast<std::size_t>(t.depth) != t.marks.size()) {
    report(Check::kSetCorruption,
           id_str(id) + " frame depth " + std::to_string(t.depth) + " != " +
               std::to_string(t.marks.size()) + " frame marks");
  }
  bool frame_reported = false;
  t.read_frame.for_each([&](sim::LineAddr, const std::int32_t& frame) {
    if (frame_reported) return;
    if (frame < 0 || frame > t.depth) {
      report(Check::kSetCorruption,
             id_str(id) + " read-set entry owned by frame " + std::to_string(frame) +
                 " outside [0, " + std::to_string(t.depth) + "]");
      frame_reported = true;
    }
  });
  // Read-log / read-set agreement: every live first-read entry (prev < 0)
  // corresponds to exactly one read-set line.  The runtime derives a
  // transaction's read lines from those entries (chop footprints, txmc).
  std::size_t first_reads = 0;
  for (const auto& [line, prev] : t.read_log) {
    if (prev < 0) ++first_reads;
  }
  if (first_reads != t.read_frame.size()) {
    report(Check::kSetCorruption,
           id_str(id) + " read log records " + std::to_string(first_reads) +
               " first-reads but the read set has " + std::to_string(t.read_frame.size()) +
               " lines");
  }
}

void check_reader_dir(const detail::Txn& t, const ReaderDir& dir) {
  const TxnId id{t.cpu, t.incarnation};
  bool reported = false;
  t.read_frame.for_each([&](sim::LineAddr line, const std::int32_t&) {
    if (reported) return;
    if (!dir.is_reader(line, t.cpu)) {
      report(Check::kSetCorruption,
             id_str(id) + " read-set line " + std::to_string(line) +
                 " has no reader bit for its CPU: a committer of that line "
                 "would not flag this transaction");
      reported = true;
    }
  });
}

void check_trace_nesting(const trace::Tracer& tracer) {
  using trace::Kind;
  for (int cpu = 0; cpu < tracer.num_cpus(); ++cpu) {
    if (tracer.dropped(cpu) != 0) continue;  // hole: pairing is unjudgeable
    const trace::Event* ev = tracer.events(cpu);
    const std::size_t n = tracer.count(cpu);
    std::vector<Kind> stack;
    std::string why;
    for (std::size_t i = 0; i < n && why.empty(); ++i) {
      const Kind k = static_cast<Kind>(ev[i].kind);
      switch (k) {
        case Kind::kTxnBegin:
        case Kind::kOpenBegin:
          stack.push_back(k);
          break;
        case Kind::kTxnCommit:
        case Kind::kTxnAbort:
          if (stack.empty() || stack.back() != Kind::kTxnBegin) {
            why = "top-level exit at cycle " + std::to_string(ev[i].cycle) +
                  (stack.empty() ? " with no open transaction"
                                 : " while an open-nested child is active");
          } else {
            stack.pop_back();
          }
          break;
        case Kind::kOpenCommit:
        case Kind::kOpenAbort:
          if (stack.empty() || stack.back() != Kind::kOpenBegin) {
            why = "open-nested exit at cycle " + std::to_string(ev[i].cycle) +
                  " without a matching open-nested begin";
          } else {
            stack.pop_back();
          }
          break;
        default:
          break;
      }
    }
    if (why.empty() && !stack.empty()) {
      why = std::to_string(stack.size()) + " transaction(s) never terminated";
    }
    if (!why.empty()) {
      report(Check::kTornTrace, "cpu " + std::to_string(cpu) +
                                    " trace stream is torn: " + why);
    }
  }
}

// ---- Shared cells ----

void naked_store(std::uintptr_t addr, std::uint32_t size) {
  report(Check::kNakedStore,
         "naked (non-transactional) store from a worker to registered Shared cell " +
             ptr_str(reinterpret_cast<const void*>(addr)) + " (" +
             std::to_string(size) + " bytes) bypasses commit arbitration");
}

void late_profile_label(std::uintptr_t va, const char* name) {
  report(Check::kLateProfileLabel,
         "profile label '" + std::string(name != nullptr ? name : "<null>") +
             "' attached to simulated address " +
             ptr_str(reinterpret_cast<const void*>(va)) +
             " from inside a running simulation: the label map is host state "
             "(not rolled back on abort) and only covers the rest of the run; "
             "label objects during setup, after the Runtime");
}

}  // namespace atomos::audit

#endif  // TXCC_CHECKED
