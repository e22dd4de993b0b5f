// txtrace: deterministic per-virtual-CPU event buffers.
//
// A Tracer owns one fixed-capacity buffer per virtual CPU.  The emission
// hooks (`on_*`) are the ONLY code that runs on the simulated hot path; they
// are branch-predictable bounds-check-and-store bodies that never allocate,
// never touch Shared<T> and never tick the engine clock (enforced statically
// by txlint's `trace-hook` rule).  Everything else — table naming, label
// registration, serialization — is setup/teardown-time and may allocate.
//
// Overflow policy: drop-newest.  When a CPU's buffer is full, further events
// on that CPU bump a `dropped` counter (the seq counter still advances, so a
// reader can see the hole).  Dropping never perturbs simulated cycles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "trace/events.h"

namespace trace {

inline constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

/// log2 of the simulated cache-line size, for label_cell's byte ranges.
/// Must equal sim::Config::kLineShift (sim/memsys.cpp checks).
inline constexpr unsigned kLineShift = 6;

class Tracer {
 public:
  /// Throws std::invalid_argument for a capacity past UINT32_MAX events,
  /// which the 32-bit per-CPU counters cannot index.
  explicit Tracer(int num_cpus, std::size_t capacity_per_cpu = kDefaultCapacity);

  // --- hot-path emission hooks (alloc-free; see txlint trace-hook) ---------

  void on_txn_begin(int cpu, std::uint64_t cycle, bool open,
                    std::uint64_t incarnation, int attempt) {
    on_event(cpu, cycle, open ? Kind::kOpenBegin : Kind::kTxnBegin,
             incarnation, pack_abort_aux(attempt, false));
  }
  void on_txn_commit(int cpu, std::uint64_t cycle, bool open,
                     std::uint64_t write_entries) {
    on_event(cpu, cycle, open ? Kind::kOpenCommit : Kind::kTxnCommit,
             write_entries, 0);
  }
  void on_txn_abort(int cpu, std::uint64_t cycle, bool open,
                    std::uint64_t lost_cycles, int attempt, bool semantic) {
    on_event(cpu, cycle, open ? Kind::kOpenAbort : Kind::kTxnAbort,
             lost_cycles, pack_abort_aux(attempt, semantic));
  }
  void on_lock_acquire(int cpu, std::uint64_t cycle, const void* table) {
    on_event(cpu, cycle, Kind::kLockAcquire,
             reinterpret_cast<std::uintptr_t>(table), 0);
  }
  void on_lock_release(int cpu, std::uint64_t cycle, const void* table) {
    on_event(cpu, cycle, Kind::kLockRelease,
             reinterpret_cast<std::uintptr_t>(table), 0);
  }
  void on_lock_block(int cpu, std::uint64_t cycle, int owner_cpu) {
    on_event(cpu, cycle, Kind::kLockBlock,
             static_cast<std::uint64_t>(owner_cpu), 0);
  }
  void on_violation_flag(int cpu, std::uint64_t cycle, std::uint64_t line,
                         int victim_cpu) {
    on_event(cpu, cycle, Kind::kViolationFlag, line,
             static_cast<std::uint16_t>(victim_cpu));
  }
  void on_sem_violation(int cpu, std::uint64_t cycle, const void* table,
                        int victim_cpu) {
    on_event(cpu, cycle, Kind::kSemViolationFlag,
             reinterpret_cast<std::uintptr_t>(table),
             static_cast<std::uint16_t>(victim_cpu));
  }
  void on_handler_run(int cpu, std::uint64_t cycle, bool abort_path,
                      std::uint64_t handler_count) {
    on_event(cpu, cycle, Kind::kHandlerRun, handler_count,
             abort_path ? 1 : 0);
  }
  void on_miss(int cpu, std::uint64_t cycle, std::uint64_t line,
               MissClass klass) {
    on_event(cpu, cycle, Kind::kMiss, line,
             static_cast<std::uint16_t>(klass));
  }

  // --- setup/teardown-time API (may allocate) ------------------------------

  // Associate a human name with a semantic lock table (the raw host pointer
  // recorded by on_lock_* / on_sem_violation).  Called by collection-class
  // constructors during setup.
  void name_table(const void* table, const std::string& name);

  // Label the simulated bytes [addr, addr+len) on every line they cover, so
  // violation flags on those lines resolve to `name` (TAPE-style conflict
  // profiling, paper Section 6.3).  Distinct names on one line join with
  // '+' in call order ("historyTable.table+Warehouse.ytd"); a name already
  // among a line's '+'-separated parts is not repeated.  Called from
  // atomos::Shared's labelled constructor during object setup.
  void label_cell(std::uint64_t addr, std::size_t len, const std::string& name);

  // Serialize deterministically: events in canonical (cpu, seq) order with
  // pointer-valued args interned to dense first-appearance ids.  Throws
  // std::runtime_error on I/O failure.
  void write(const std::string& path) const;

  // --- introspection -------------------------------------------------------

  int num_cpus() const { return num_cpus_; }
  std::size_t capacity() const { return cap_; }
  std::size_t count(int cpu) const { return bufs_[idx(cpu)].n; }
  std::uint64_t dropped(int cpu) const { return bufs_[idx(cpu)].dropped; }
  const Event* events(int cpu) const { return bufs_[idx(cpu)].ev.get(); }
  const std::unordered_map<std::uint64_t, std::string>& labels() const {
    return labels_;
  }

 private:
  struct Buf {
    std::unique_ptr<Event[]> ev;
    std::uint32_t n = 0;
    std::uint32_t seq = 0;
    std::uint64_t dropped = 0;
  };

  static std::size_t idx(int cpu) { return static_cast<std::size_t>(cpu); }

  // The single raw-store body every hook funnels through.
  void on_event(int cpu, std::uint64_t cycle, Kind kind, std::uint64_t arg,
                std::uint16_t aux) {
    Buf& b = bufs_[idx(cpu)];
    if (b.n >= cap_) {
      b.dropped += 1;
      b.seq += 1;
      return;
    }
    Event& e = b.ev[b.n];
    e.cycle = cycle;
    e.arg = arg;
    e.seq = b.seq;
    e.aux = aux;
    e.kind = static_cast<std::uint8_t>(kind);
    e.cpu = static_cast<std::uint8_t>(cpu);
    b.n += 1;
    b.seq += 1;
  }

  int num_cpus_;
  std::uint32_t cap_;
  std::unique_ptr<Buf[]> bufs_;
  std::unordered_map<const void*, std::string> table_names_;
  std::unordered_map<std::uint64_t, std::string> labels_;
};

// ---------------------------------------------------------------------------
// Thread-local trace request: how `--trace` reaches a Runtime that is
// constructed deep inside a series body without changing any bench code.
// The harness driver sets a request before invoking the series; the next
// Runtime constructed on this host thread consumes it and attaches a tracer.
// An empty path attaches an in-memory tracer that is audited but never
// written (used by the hotpath overhead twins).
// ---------------------------------------------------------------------------

struct Request {
  std::string path;
  std::size_t capacity = kDefaultCapacity;
};

void set_request(const std::string& path,
                 std::size_t capacity = kDefaultCapacity);
// Returns true and fills `out` if a request was pending; consumes it.
bool take_request(Request& out);
void clear_request();

}  // namespace trace
