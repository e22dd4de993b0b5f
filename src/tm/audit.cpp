#include "tm/audit.h"

#if defined(TXCC_CHECKED) && TXCC_CHECKED

#include <array>
#include <cstdio>
#include <optional>
#include <utility>

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

void begin_simulation() { st().locks.clear(); }

void reset() {
  begin_simulation();
  State& s = st();
  s.counts.fill(0);
  s.findings.clear();
}

std::uint64_t count(Check c) { return st().counts[static_cast<std::size_t>(c)]; }

std::uint64_t total() {
  std::uint64_t n = 0;
  for (const auto c : st().counts) n += c;
  return n;
}

const std::vector<std::string>& reports() { return st().findings; }

// ---- semantic-layer events ----

void on_sem(const SemEvent& e) {
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
}

void check_reader_dir(const detail::Txn& t, const ReaderDir& dir) {
  const TxnId id{t.cpu, t.incarnation};
  bool reported = false;
  t.read_set.for_each([&](sim::LineAddr line, bool) {
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

}  // namespace atomos::audit

#endif  // TXCC_CHECKED
