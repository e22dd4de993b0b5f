// Timed memory hierarchy for the CMP simulator.
//
// Models per-CPU L1 caches, a shared bus (occupancy + queuing), and an
// always-hitting shared L2.  Two access families are provided:
//
//  * plain_load / plain_store  - MESI snoopy coherence, used for the
//    lock-based ("Java") runs and for non-speculative accesses; contended
//    lines ping-pong between caches with realistic cost.
//  * tx_load / tx_store / tcc_commit - TCC-style lazy transactional timing:
//    speculative stores stay in the L1 (no bus traffic) and commits occupy
//    the bus proportionally to the write-set size, exactly the cost model of
//    the paper's simulated TCC CMP.
//
// Conflict *detection* for transactions is the TM layer's job (line-granular
// read/write sets); MemSys only provides timing plus copy invalidation.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/cpu_mask.h"
#include "sim/flat_map.h"
#include "sim/stats.h"
#include "sim/vaddr.h"

namespace trace {
class Tracer;
}

namespace sim {

using LineAddr = std::uint64_t;

/// Converts a byte address to its cache-line address.
constexpr LineAddr line_of(std::uintptr_t addr) {
  return static_cast<LineAddr>(addr) >> Config::kLineShift;
}

// The arena allocator's line-isolation arithmetic (sim/vaddr.h) must agree
// with the cost model's line granularity.
static_assert(kVaLineBytes == (std::uintptr_t{1} << Config::kLineShift),
              "sim::kVaLineBytes out of sync with Config::kLineShift");

/// Shared split-transaction bus: a single resource with queuing.
class Bus {
 public:
  /// Requests the bus at time `t` for `occupancy` cycles after `arb` cycles
  /// of arbitration; returns the completion time.
  std::uint64_t transact(std::uint64_t t, std::uint32_t arb, std::uint32_t occupancy) {
    std::uint64_t start = t + arb;
    if (start < free_at_) start = free_at_;
    free_at_ = start + occupancy;
    busy_cycles_ += occupancy;
    return free_at_;
  }

  std::uint64_t busy_cycles() const { return busy_cycles_; }

 private:
  std::uint64_t free_at_ = 0;
  std::uint64_t busy_cycles_ = 0;
};

/// Hit/miss counters for the per-thread L1 way-array pool (see MemSys ctor).
/// Cumulative for the calling thread; surfaced by bench/hotpath so the pool
/// stays observable in BENCH_hotpath.json.
struct L1PoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
L1PoolStats l1_pool_stats();

class MemSys {
 public:
  MemSys(const Config& cfg, Stats& stats);
  ~MemSys();
  MemSys(const MemSys&) = delete;
  MemSys& operator=(const MemSys&) = delete;

  // --- MESI (lock-mode / non-speculative) accesses ---
  std::uint64_t plain_load(int cpu, std::uintptr_t addr, std::uint64_t t);
  std::uint64_t plain_store(int cpu, std::uintptr_t addr, std::uint64_t t);

  // --- TCC (transactional-mode) accesses ---
  std::uint64_t tx_load(int cpu, std::uintptr_t addr, std::uint64_t t);
  std::uint64_t tx_store(int cpu, std::uintptr_t addr, std::uint64_t t);

  /// Times a TCC commit broadcasting `write_lines` lines; returns completion.
  std::uint64_t tcc_commit(int cpu, std::size_t write_lines, std::uint64_t t);

  /// Drops every other CPU's cached copy of `line` (commit broadcast).
  void invalidate_copies(int committer, LineAddr line);

  /// Drops the CPU's speculatively written lines (transaction abort).
  void abort_clear_speculative(int cpu);

  const Bus& bus() const { return bus_; }

  /// Attaches/detaches the event tracer (miss events).  Timing is entirely
  /// unaffected: the tracer is consulted behind `if (tracer_)` only after
  /// all cycle accounting for an access is done.
  void set_tracer(trace::Tracer* t) { tracer_ = t; }

 private:
  enum class St : std::uint8_t { I, S, E, M };

  struct Way {
    LineAddr line = 0;
    St state = St::I;
    bool spec_dirty = false;  // TCC: holds speculative (uncommitted) data
    std::uint64_t lru = 0;
  };

  struct Dir {
    CpuMask sharers;  // CPUs with a copy (multi-word: up to kMaxCpus)
    int owner = -1;   // CPU holding the line in E or M (MESI mode)
  };

  Way* find(int cpu, LineAddr line);
  Way& victim(int cpu, LineAddr line);
  void evict(int cpu, Way& w);
  void drop_from(int cpu, LineAddr line);  // cache+dir removal
  void dir_remove_cpu(LineAddr line, int cpu);

  Way* l1_of(int cpu) { return l1_.data() + static_cast<std::size_t>(cpu) * kCpuStride; }

  static std::vector<std::vector<Way>>& l1_pool();  // per-thread recycled buffers

  // The set count is a power of two so the per-access set lookup is a mask,
  // not an integer division (find/victim run on every access).
  static_assert(std::has_single_bit(Config::kL1Sets), "L1 set count must be a power of two");
  static constexpr std::size_t kSetMask = Config::kL1Sets - 1;
  static constexpr std::size_t kCpuStride = std::size_t{Config::kL1Sets} * Config::kL1Ways;

  Stats& stats_;
  Bus bus_;
  // All CPUs' L1 ways in ONE flat array, [cpu * kCpuStride + set*ways + way].
  // One array instead of per-CPU vectors removes a pointer chase from find()
  // (every simulated access) and — more importantly — keeps engine teardown
  // from free()ing num_cpus separate blocks: at 128 CPUs that churn crossed
  // glibc's trim threshold, returning ~1.5MB to the kernel per engine and
  // page-faulting it back in the next one (the fiber_spawn_128 cliff).  The
  // single buffer is recycled through a per-thread pool instead.
  std::vector<Way> l1_;
  // Ways a CPU has speculatively written (spec_dirty set by tx_store), so
  // commit/abort clear exactly those instead of sweeping the whole L1.
  // May hold stale indices (eviction clears the flag without unlisting);
  // consumers re-check spec_dirty, which makes duplicates idempotent too.
  std::vector<std::vector<std::uint32_t>> spec_ways_;
  // Line directory as an open-addressing flat table.  NOTE: unlike
  // unordered_map, insert AND erase can move other entries, so no Dir
  // pointer/reference may be held across another dir_ mutation — the
  // accessors below copy out and write back instead.
  FlatMap<LineAddr, Dir> dir_;
  std::uint64_t lru_tick_ = 0;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace sim
