// Simulator configuration: CPU count and cycle-level timing parameters.
//
// The defaults follow the flavour of CMP the paper simulated (TCC on an
// execution-driven CMP): CPI 1.0 for non-memory instructions, timed L1,
// a shared L2 behind a snooping bus, and commit bandwidth proportional to
// write-set size.  Every knob is overridable per benchmark.
#pragma once

#include <cstdint>

namespace sim {

/// Global execution mode of a simulation run.
enum class Mode : std::uint8_t {
  kLock,  ///< MESI coherence; synchronization via sim::Mutex ("Java" runs)
  kTcc,   ///< TCC-style lazy transactional execution ("Atomos" runs)
};

/// All timing/topology parameters of one simulation.
struct Config {
  /// Hard upper bound on num_cpus: the single source of truth every
  /// CPU-indexed bitmask in the simulator (reader directory, MESI sharer
  /// sets) is sized from.  Raising it only costs wider mask walks, which
  /// stay O(set bits) via countr_zero word-skipping.
  static constexpr int kMaxCpus = 128;

  int num_cpus = 8;
  Mode mode = Mode::kTcc;

  // --- memory hierarchy timing (cycles) ---
  std::uint32_t l1_hit_cycles = 1;
  std::uint32_t l2_hit_cycles = 12;      ///< latency of an L1 miss served by L2
  std::uint32_t bus_arb_cycles = 3;      ///< bus arbitration before any transaction
  std::uint32_t bus_xfer_cycles = 4;     ///< bus occupancy per 64B line transfer
  std::uint32_t writeback_cycles = 4;    ///< extra occupancy when a dirty copy intervenes

  // --- L1 geometry ---
  std::uint32_t l1_sets = 128;           ///< 128 sets * 4 ways * 64B = 32 KiB
  std::uint32_t l1_assoc = 4;

  // --- TCC commit/violation timing ---
  std::uint32_t txn_begin_cycles = 2;    ///< register-checkpoint cost
  std::uint32_t commit_arb_cycles = 5;   ///< commit-token arbitration
  std::uint32_t commit_line_cycles = 4;  ///< broadcast occupancy per written line
  std::uint32_t violation_cycles = 40;   ///< flush/restart penalty on violation

  // --- semantic-layer cost model (host-side lock tables / store buffers) ---
  std::uint32_t sem_op_cycles = 12;      ///< one semantic-lock / store-buffer op

  // --- host-deadline supervision (wall-clock, never affects simulated time) -
  /// The host deadline (Engine::set_host_deadline) is polled once every
  /// (deadline_poll_mask + 1) scheduling decisions; must be 2^k - 1.
  std::uint32_t deadline_poll_mask = 511;
  /// With a deadline armed, no fiber is handed a run budget of more than
  /// this many cycles past its own clock, so even a sole runnable fiber
  /// spinning in tick() re-enters the scheduler (where the deadline is
  /// polled).  Capping only inserts extra yields; simulated clocks are
  /// unaffected.
  std::uint64_t deadline_quantum = 65536;

  std::uint64_t seed = 1;                ///< workload RNG seed (determinism)

  static constexpr std::uint32_t kLineBytes = 64;
  static constexpr std::uint32_t kLineShift = 6;
};

}  // namespace sim
