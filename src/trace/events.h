// txtrace event records (binary, per-virtual-CPU streams).
//
// One Event is 24 bytes of plain data.  Events are stamped with the emitting
// CPU's *simulated* clock and a per-CPU emission sequence number; the stream
// never records host time, host thread ids or host pointers (pointer-valued
// arguments are interned to dense ids at serialization), so a trace file is a
// pure function of the Config and the workload, and byte-identical for any
// `--jobs N`.
//
// Per-CPU ordering invariant: every event is emitted by the fiber currently
// running on that CPU, at that CPU's own clock, so within one buffer `cycle`
// is non-decreasing and append order equals the canonical (cpu, cycle, seq)
// merge order.  Cross-CPU facts are therefore recorded on the track of the
// CPU that *performs* the action — a violation flag lives on the committing
// writer's track (with the victim CPU in `aux`), never on the victim's,
// whose clock may already be ahead of the committer's.
#pragma once

#include <cstdint>

namespace trace {

enum class Kind : std::uint8_t {
  kNone = 0,
  // Top-level (closed-nesting bottom) transactions.  arg = incarnation on
  // begin; arg = write-set entries on commit; arg = wasted cycles on abort.
  kTxnBegin,
  kTxnCommit,
  kTxnAbort,
  // Open-nested transactions (children and detached abort-compensation).
  kOpenBegin,
  kOpenCommit,
  kOpenAbort,
  // Semantic locks: arg = lock-table id (a host pointer in the in-memory
  // buffer, a dense id in the file).
  kLockAcquire,
  kLockRelease,
  // Commit-token arbitration wait: arg = the CPU holding the token.
  kLockBlock,
  // Memory-level conflict: emitted on the WRITER's track at broadcast time.
  // arg = conflicting cache-line address (virtual), aux = victim CPU.
  kViolationFlag,
  // Semantic (program-directed) conflict: arg = lock-table id, aux = victim.
  kSemViolationFlag,
  // Commit/abort handler batch: arg = handler count, aux = 1 for abort.
  kHandlerRun,
  // L1 miss: arg = line address, aux = class (see MissClass).
  kMiss,
};

enum class MissClass : std::uint16_t {
  kPlainLoad = 0,
  kPlainStore = 1,
  kTxLoad = 2,
  kTxStore = 3,
};

struct Event {
  std::uint64_t cycle;  // emitting CPU's simulated clock
  std::uint64_t arg;    // kind-specific payload (see Kind)
  std::uint32_t seq;    // per-CPU emission counter (ties within one cycle)
  std::uint16_t aux;    // kind-specific small payload
  std::uint8_t kind;    // a trace::Kind
  std::uint8_t cpu;     // emitting virtual CPU
};

static_assert(sizeof(Event) == 24, "Event must stay a packed 24-byte record");

// Abort events carry the attempt number and the semantic-violation bit in
// aux: low 15 bits = attempt (saturated), bit 15 = killed by a semantic
// (program-directed) violation rather than a memory conflict.
inline constexpr std::uint16_t kAuxSemanticBit = 0x8000u;

inline std::uint16_t pack_abort_aux(int attempt, bool semantic) {
  std::uint32_t a = attempt < 0 ? 0u : static_cast<std::uint32_t>(attempt);
  if (a > 0x7FFFu) a = 0x7FFFu;
  return static_cast<std::uint16_t>(a | (semantic ? kAuxSemanticBit : 0u));
}

}  // namespace trace
