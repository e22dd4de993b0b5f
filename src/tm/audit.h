// txcheck layer 2: the TXCC_CHECKED runtime invariant auditor.
//
// Compiled in with -DTXCC_CHECKED=1 (CMake option TXCC_CHECKED).  A
// per-transaction audit ledger cross-checks, at runtime, the discipline the
// static lint (tools/txlint) can only approximate from source text:
//
//  * semantic-lock acquire/release pairing — every lock a top-level
//    transaction takes in a LockerSet / KeyLockTable / RangeLockTable must
//    be released by the time that transaction settles (commit handler on
//    commit, abort handler on abort).  A lock still held when the
//    transaction is gone is a LEAK: no one will ever release it, and every
//    later writer of that key is violated or serialized forever.  The judge
//    is tm/lock_ledger.h, shared with the txmc oracle;
//  * read/write-set consistency — while the commit token is held the
//    transaction's redo log and read set must be internally consistent
//    (index maps and logs agree) before the write set is broadcast;
//  * naked stores — a non-transactional store from a worker fiber in Tcc
//    mode to a Shared cell bypasses commit arbitration and is reported
//    (legal at the memory level, but almost always a missing `atomically`).
//
// Findings are counted and recorded (query with count()/reports()); the
// first few are echoed to stderr.  The auditor never throws or aborts: the
// negative tests in tests/tm/checked_runtime_test.cpp assert on the
// counters, and production code pays nothing when TXCC_CHECKED is off (all
// hooks collapse to empty inlines).
//
// Thread model: state is thread_local, matching the runtime's "one Runtime
// per host thread, all fibers of an engine on that thread" design.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace trace {
class Tracer;
}

// Declared, not included: tm/runtime.h includes this header to call its
// hooks.
namespace atomos {
struct TxnId;
struct SemEvent;
class ReaderDir;
namespace detail {
struct Txn;
}
}  // namespace atomos

namespace atomos::audit {

enum class Check {
  kLockLeak = 0,
  kSetCorruption,
  kNakedStore,
  kLateProfileLabel,
  kTornTrace,
  /// A simulated cell was constructed on a host thread whose va arena
  /// cursors are not owned by a live Engine (while Engines are live
  /// elsewhere): the cell draws from a stale thread_local cursor and can
  /// alias another simulation's addresses.  Detected in sim::va_alloc
  /// (sim/vaddr.h); the count lives there and is surfaced here.
  kForeignVaAlloc,
  /// A semantic lock released twice by an unsettled transaction: the
  /// release request found nothing to release, no prune had taken the lock
  /// over, and the owner has not settled yet — a second release (or a
  /// release without acquire), which under optimistic read intents can
  /// strip ANOTHER reader's protection from the key.
  kDoubleRelease,
  /// The same collection compensation (abort handler) ran twice within one
  /// abort: compensations are not idempotent (a second run re-applies the
  /// inverse op to already-restored state), so a double registration
  /// corrupts the committed collection.
  kDoubleCompensation,
  kChecks  // count sentinel
};

#if defined(TXCC_CHECKED) && TXCC_CHECKED

inline constexpr bool kEnabled = true;

/// Clears counters, reports and the lock ledger.
void reset();
/// Starts the ledger of a new simulation (the Runtime constructor calls
/// it).  Transaction ids restart with each Runtime, so the lock ledger and
/// the abort scopes of an earlier simulation on this thread must not judge
/// this one.  Counters and reports are kept.
void begin_simulation();

std::uint64_t count(Check c);
std::uint64_t total();
const std::vector<std::string>& reports();

// ---- hook: semantic-layer events (Runtime::report_sem) ----
/// Feeds the lock ledger and the compensation scopes:
///  * the lock-table events and kSettle go to atomos::LockLedger, which
///    judges the lock rule; a leak found at a settle is kLockLeak, an empty
///    release it finds neither owed to a prune nor stale is kDoubleRelease;
///  * kCompensation is a collection compensation body starting on
///    owner.cpu.  The same site running twice inside one abort scope is
///    kDoubleCompensation;
///  * kViolation is not audited.
void on_sem(const SemEvent& e);

// ---- hooks: compensation scoping (called by tm/runtime.cpp) ----
/// Brackets one transaction's abort-handler run.  Scopes are tracked PER
/// CPU: handler transactions tick and yield, so abort scopes of different
/// cpus interleave arbitrarily under the fiber scheduler and a global stack
/// would misattribute compensations.
void abort_scope_begin(const TxnId& id);
void abort_scope_end(int cpu);
/// Brackets one handler transaction's outcome inside the cpu's abort scope.
/// The runtime runs each abort handler as a detached open transaction that
/// can itself be doomed (by a commit that conflicts with its own reads) and
/// retried; an aborted attempt rolled its effects back, so its compensation
/// notes must be forgotten before the retry re-runs the body — only attempts
/// that COMMIT count toward double-run detection.
void compensation_handler_committed(int cpu);
void compensation_handler_aborted(int cpu);

// ---- hooks: transaction lifecycle (called by tm/runtime.cpp) ----
void check_txn_sets(const detail::Txn& t);
/// Cross-checks the reader directory against a transaction's read set:
/// every line a live transaction has read must have its CPU's reader bit
/// set (else a committer would miss it).
void check_reader_dir(const detail::Txn& t, const ReaderDir& dir);

// ---- hooks: Shared cells (called by tm/runtime.cpp and tm/shared.h) ----
/// A worker's non-transactional store of `size` bytes to the Shared cell
/// whose committed storage is at `addr` (Runtime::tm_write outside any
/// transaction in Tcc mode).
void naked_store(std::uintptr_t addr, std::uint32_t size);
/// A TAPE profile label attached to the tracer from a worker fiber, while
/// the simulation is already running: the label map is host state (not
/// rolled back on abort) and covers only the rest of the run.  Labels
/// belong in object setup, after the Runtime is constructed.
void late_profile_label(std::uintptr_t va, const char* name);
/// Audits a trace stream for well-nestedness per CPU: every kTxnBegin must
/// pair with a kTxnCommit/kTxnAbort, every kOpenBegin with a matching open
/// exit, in stack order.  CPUs whose buffer overflowed (dropped events) are
/// skipped — pairing cannot be judged across a hole.  Called from ~Runtime
/// when a tracer was attached; a torn stream means a lost emission point.
void check_trace_nesting(const trace::Tracer& tracer);

#else  // !TXCC_CHECKED — every hook is a free empty inline

inline constexpr bool kEnabled = false;

inline void reset() {}
inline void begin_simulation() {}
inline std::uint64_t count(Check) { return 0; }
inline std::uint64_t total() { return 0; }
inline const std::vector<std::string>& reports() {
  static const std::vector<std::string> kNone;
  return kNone;
}
inline void on_sem(const SemEvent&) {}
inline void abort_scope_begin(const TxnId&) {}
inline void abort_scope_end(int) {}
inline void compensation_handler_committed(int) {}
inline void compensation_handler_aborted(int) {}
inline void check_txn_sets(const detail::Txn&) {}
inline void check_reader_dir(const detail::Txn&, const ReaderDir&) {}
inline void naked_store(std::uintptr_t, std::uint32_t) {}
inline void late_profile_label(std::uintptr_t, const char*) {}
inline void check_trace_nesting(const trace::Tracer&) {}

#endif

}  // namespace atomos::audit
