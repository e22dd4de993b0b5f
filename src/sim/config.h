// Simulator configuration: CPU count, execution mode and the fixed timing
// of the one machine the paper evaluates.
//
// The costs follow the flavour of CMP the paper simulated (TCC on an
// execution-driven CMP): CPI 1.0 for non-memory instructions, timed L1,
// a shared L2 behind a snooping bus, and commit bandwidth proportional to
// write-set size.  They are constants: every figure runs the same machine.
#pragma once

#include <cstdint>

namespace sim {

/// Global execution mode of a simulation run.
enum class Mode : std::uint8_t {
  kLock,  ///< MESI coherence; synchronization via sim::Mutex ("Java" runs)
  kTcc,   ///< TCC-style lazy transactional execution ("Atomos" runs)
};

/// The parameters of one simulation.
struct Config {
  /// Hard upper bound on num_cpus: the single source of truth every
  /// CPU-indexed bitmask in the simulator (reader directory, MESI sharer
  /// sets) is sized from.  Raising it only costs wider mask walks, which
  /// stay O(set bits) via countr_zero word-skipping.
  static constexpr int kMaxCpus = 128;

  int num_cpus = 8;
  Mode mode = Mode::kTcc;

  // --- host-deadline supervision (wall-clock, never affects simulated time) -
  /// The host deadline (Engine::set_host_deadline) is polled once every
  /// (kDeadlinePollMask + 1) scheduling decisions.
  static constexpr std::uint32_t kDeadlinePollMask = 511;
  static_assert((kDeadlinePollMask & (kDeadlinePollMask + 1)) == 0, "must be 2^k - 1");
  /// With a deadline armed, no fiber is handed a run budget of more than
  /// this many cycles past its own clock, so even a sole runnable fiber
  /// spinning in tick() re-enters the scheduler (where the deadline is
  /// polled).  Capping only inserts extra yields; simulated clocks are
  /// unaffected.
  static constexpr std::uint64_t kDeadlineQuantum = 65536;

  // --- memory hierarchy timing (cycles) ---
  static constexpr std::uint32_t kL1HitCycles = 1;
  static constexpr std::uint32_t kL2HitCycles = 12;     ///< L1 miss served by L2
  static constexpr std::uint32_t kBusArbCycles = 3;     ///< arbitration before a bus transaction
  static constexpr std::uint32_t kBusXferCycles = 4;    ///< bus occupancy per 64B line transfer
  static constexpr std::uint32_t kWritebackCycles = 4;  ///< extra occupancy: dirty copy intervenes

  // --- L1 geometry: 128 sets * 4 ways * 64B = 32 KiB ---
  static constexpr std::uint32_t kL1Sets = 128;
  static constexpr std::uint32_t kL1Ways = 4;

  // --- TCC commit/violation timing ---
  static constexpr std::uint32_t kTxnBeginCycles = 2;    ///< register-checkpoint cost
  static constexpr std::uint32_t kCommitArbCycles = 5;   ///< commit-token arbitration
  static constexpr std::uint32_t kCommitLineCycles = 4;  ///< broadcast occupancy per written line
  static constexpr std::uint32_t kViolationCycles = 40;  ///< flush/restart penalty on violation

  // --- semantic-layer cost model (host-side lock tables / store buffers) ---
  static constexpr std::uint32_t kSemOpCycles = 12;      ///< one semantic-lock / store-buffer op

  static constexpr std::uint32_t kLineShift = 6;
  static constexpr std::uint32_t kLineBytes = 1u << kLineShift;
};

}  // namespace sim
