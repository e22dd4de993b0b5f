// Deterministic virtual addresses for simulated shared memory, segregated
// into one arena per memory class.
//
// The simulator's cost model is address-driven: line_of(addr) decides cache
// sets, false sharing, and conflict granularity.  Using *host* heap addresses
// for that made simulated cycle counts depend on the binary's data-segment
// layout — recompiling (or even linking in an unrelated object) shifted every
// malloc and with it every cycle total.  Instead, each simulated memory word
// (a Shared<T> cell or a Mutex lock word) is assigned a virtual address from
// a bump allocator in construction order.
//
// WHY ARENAS (the fig4 lesson).  A single bump counter packs cells onto
// 64-byte lines by raw construction adjacency, so a collection's dispatch
// pointer could land on the same virtual line as an open-nested counter
// constructed just after it.  In the SPECjbb harness that put the
// historyTable table pointer — read by every Payment parent — on the line of
// the warehouse open-nested counters, so every counter child's commit killed
// every parent mid-flight: a feedback storm that collapsed Atomos Open to
// 0.00x at 32 CPUs (see EXPERIMENTS.md, fig4 case study).  Conflict
// detection must follow the abstraction's sharing structure, not accidental
// layout.  Cells are therefore placed by *memory class*, one arena each,
// and every cell names its class where it is built (no class is a default):
//
//  * MemClass::kMeta    — collection metadata (dispatch pointers, size
//                         fields); each cell gets a private 64-byte line;
//  * MemClass::kCounter — open-nested / semantic counters; private lines;
//  * MemClass::kLock    — sim::Mutex lock words; private lines;
//  * MemClass::kData    — bulk element cells (nodes, buckets, entity
//                         fields), packed eight words per line so false
//                         sharing is modelled by adjacency.
//
// Consequences, all deliberate:
//  * cycle totals are a pure function of the workload (binary- and
//    machine-independent), so golden-cycle tests and the CI perf gate can
//    pin them exactly — arena layout is itself a pure function of the
//    workload's construction order, byte-identical for any --jobs N;
//  * false sharing between packed data cells is modelled by construction
//    adjacency, as before;
//  * virtual lines are dense inside each arena, so per-line state (the
//    MemSys coherence records and the TM reader directory) lives in a
//    sim::LineTable: one array per arena, indexed from the arena's own base
//    and grown only as far as the workload allocates in it.
//
// The cursors are reset by each Engine's constructor.  Invariant: simulated
// cells must be constructed on the Engine's own host thread, after the
// Engine that simulates them, and never reused under a later Engine.  The
// cursors are thread_local (host-parallel sweeps run one Engine per worker
// thread), so a cell constructed on a *different* thread than its Engine
// would draw from a stale cursor and alias another simulation's addresses.
// va_alloc throws std::logic_error for such a foreign allocation, in every
// build.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "sim/config.h"

namespace sim {

/// Base of the simulated shared heap.  Non-zero so a virtual address can
/// never be confused with a null pointer.
inline constexpr std::uintptr_t kVaBase = std::uintptr_t{1} << 20;

/// The memory class a cell declares: which arena its virtual address comes
/// from, in ascending base-address order.  The order is part of the cost
/// model: every cell's address, and with it its L1 set and every simulated
/// cycle total, follows from it.  Every class but kData gives each cell a
/// private line.  Scoped, so a class never converts to a cell's value type.
enum class MemClass : std::uint8_t {
  kMeta = 0,     ///< collection metadata: dispatch pointers, size fields
  kCounter = 1,  ///< open-nested / semantic counters
  kLock = 2,     ///< sim::Mutex lock words
  kData = 3,     ///< bulk element cells, packed eight words per line
};
inline constexpr std::size_t kArenaCount = 4;

// The names call sites use.
inline constexpr MemClass kDataCell = MemClass::kData;
inline constexpr MemClass kMetaCell = MemClass::kMeta;
inline constexpr MemClass kCounterCell = MemClass::kCounter;
inline constexpr MemClass kLockWord = MemClass::kLock;

/// Fixed span of each arena.  The line-private arenas hold 16Ki lines
/// each — about 6x the hungriest workload in the repo (SPECjbb Java mode:
/// ~2700 per-object lock words) — and overflow is a hard, deterministic
/// error (never a silent collision).  kData is effectively unbounded.  An
/// unused span costs no host memory (sim/line_table.h indexes each arena
/// from its own base); the spans stay fixed because every address follows
/// from them.
inline constexpr std::uintptr_t kArenaSpan[kArenaCount] = {
    std::uintptr_t{1} << 20,  // kMeta:    1 MiB = 16384 isolated lines
    std::uintptr_t{1} << 20,  // kCounter: 1 MiB
    std::uintptr_t{1} << 20,  // kLock:    1 MiB
    std::uintptr_t{1} << 32,  // kData:    4 GiB
};

/// First address of `arena` (arenas are laid out back-to-back from kVaBase).
constexpr std::uintptr_t arena_base(MemClass arena) {
  std::uintptr_t b = kVaBase;
  for (std::size_t i = 0; i < static_cast<std::size_t>(arena); ++i) b += kArenaSpan[i];
  return b;
}

/// One-past-the-last address of `arena`.
constexpr std::uintptr_t arena_limit(MemClass arena) {
  return arena_base(arena) + kArenaSpan[static_cast<std::size_t>(arena)];
}

static_assert(arena_base(MemClass::kMeta) == kVaBase,
              "the first arena starts the virtual heap at kVaBase");
static_assert(arena_base(MemClass::kMeta) % Config::kLineBytes == 0);
static_assert(arena_base(MemClass::kCounter) % Config::kLineBytes == 0);
static_assert(arena_base(MemClass::kLock) % Config::kLineBytes == 0);
static_assert(arena_base(MemClass::kData) % Config::kLineBytes == 0);

namespace detail {

/// Per-host-thread allocator state: one bump cursor per arena plus the
/// owning Engine (for the cross-thread construction check).  thread_local
/// so concurrent sweep points on different host threads stay independent.
struct VaState {
  std::uintptr_t next[kArenaCount] = {
      arena_base(MemClass::kMeta), arena_base(MemClass::kCounter),
      arena_base(MemClass::kLock), arena_base(MemClass::kData)};
  const void* owner = nullptr;  ///< Engine that last reset this thread's cursors
  bool owner_live = false;      ///< false once that Engine is destroyed
};
inline thread_local VaState va_state;

/// Number of live Engines process-wide; maintained by Engine's ctor/dtor.
/// Used only to scope the cross-thread check: allocating with no Engine
/// alive anywhere (unit tests constructing bare cells) is legitimate.
inline std::atomic<long> va_live_engines{0};

/// True when allocating on this thread cannot alias another simulation's
/// addresses: either this thread's cursors are owned by a live Engine, or
/// no Engine is live anywhere (engine-less setup/unit-test code).
inline bool va_owner_ok() {
  return va_state.owner_live || va_live_engines.load(std::memory_order_relaxed) == 0;
}

}  // namespace detail

/// Allocates `bytes` of simulated address space from the arena of `mc`.
///
///  * kData: word-rounded bump allocation — adjacent cells share lines.
///  * every other class: the cell starts on a fresh 64-byte line and the
///    cursor skips to the next line boundary afterwards, so no other cell is
///    ever resident on the cell's line(s).
///
/// Overflowing an arena throws (deterministically) rather than bleeding
/// into the neighbouring arena, and so does a foreign allocation (see the
/// invariant above).
inline std::uintptr_t va_alloc(std::size_t bytes, MemClass mc) {
  if (!detail::va_owner_ok())
    throw std::logic_error(
        "va_alloc: simulated cell constructed on a host thread whose va cursors "
        "no live Engine owns; build cells after their Engine, on its thread");
  std::uintptr_t& next = detail::va_state.next[static_cast<std::size_t>(mc)];
  std::uintptr_t a = next;
  std::uintptr_t end;
  if (mc != MemClass::kData) {
    constexpr std::uintptr_t line = Config::kLineBytes;
    a = (a + line - 1) & ~(line - 1);
    end = (a + bytes + line - 1) & ~(line - 1);
  } else {
    end = a + ((bytes + 7u) & ~static_cast<std::uintptr_t>(7u));
  }
  if (end > arena_limit(mc)) throw std::length_error("va_alloc: arena span exhausted");
  next = end;
  return a;
}

/// Rewinds every arena cursor on the calling thread; called by Engine's
/// constructor (passing itself as `owner`) so each simulation lays out its
/// cells from the same bases.
inline void va_reset(const void* owner = nullptr) {
  detail::VaState& st = detail::va_state;
  st.next[0] = arena_base(MemClass::kMeta);
  st.next[1] = arena_base(MemClass::kCounter);
  st.next[2] = arena_base(MemClass::kLock);
  st.next[3] = arena_base(MemClass::kData);
  st.owner = owner;
  st.owner_live = owner != nullptr;
}

/// Called by Engine's destructor: if this thread's cursors are owned by the
/// dying Engine, mark them stale so later allocations (which would reuse
/// addresses) throw while another Engine is live.
inline void va_owner_destroyed(const void* owner) {
  if (detail::va_state.owner == owner) detail::va_state.owner_live = false;
}

}  // namespace sim
