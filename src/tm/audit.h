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
//    transaction's redo log and its index must agree, and every line of its
//    read set must carry its CPU's reader bit, before the write set is
//    broadcast;
//  * torn trace streams.
//
// Misuse that one call can see is not audited: it throws std::logic_error at
// that call, in every build (tm/shared.h, Runtime::tm_write, sim/vaddr.h).
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
  kTornTrace,
  /// A semantic lock released twice by an unsettled transaction: the
  /// release request found nothing to release, no prune had taken the lock
  /// over, and the owner has not settled yet — a second release (or a
  /// release without acquire), which under optimistic read intents can
  /// strip ANOTHER reader's protection from the key.
  kDoubleRelease,
  kChecks  // count sentinel
};

#if defined(TXCC_CHECKED) && TXCC_CHECKED

inline constexpr bool kEnabled = true;

/// Clears counters, reports and the lock ledger.
void reset();
/// Starts the ledger of a new simulation (the Runtime constructor calls
/// it).  Transaction ids restart with each Runtime, so the lock ledger of
/// an earlier simulation on this thread must not judge this one.  Counters
/// and reports are kept.
void begin_simulation();

std::uint64_t count(Check c);
std::uint64_t total();
const std::vector<std::string>& reports();

// ---- hook: semantic-layer events (Runtime::report_sem) ----
/// Feeds atomos::LockLedger, which judges the lock rule from the lock-table
/// events and kSettle: a leak found at a settle is kLockLeak, an empty
/// release it finds neither owed to a prune nor stale is kDoubleRelease.
/// kViolation is not audited.
void on_sem(const SemEvent& e);

// ---- hooks: transaction lifecycle (called by tm/runtime.cpp) ----
void check_txn_sets(const detail::Txn& t);
/// Cross-checks the reader directory against a transaction's read set:
/// every line a live transaction has read must have its CPU's reader bit
/// set (else a committer would miss it).
void check_reader_dir(const detail::Txn& t, const ReaderDir& dir);

// ---- hook: trace streams (called by ~Runtime) ----
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
inline void check_txn_sets(const detail::Txn&) {}
inline void check_reader_dir(const detail::Txn&, const ReaderDir&) {}
inline void check_trace_nesting(const trace::Tracer&) {}

#endif

}  // namespace atomos::audit
