#include "sim/memsys.h"

#include "trace/tracer.h"

namespace sim {

// The tracer maps labelled byte ranges to lines on its own (it must not
// depend on the simulator); its line size must be the cost model's.
static_assert(trace::kLineShift == Config::kLineShift,
              "trace::kLineShift out of sync with Config::kLineShift");

namespace {
thread_local std::uint64_t g_l1_pool_hits = 0;
thread_local std::uint64_t g_l1_pool_misses = 0;
// Engines created/destroyed in sequence on one thread (figure sweeps, the
// spawn benches) reuse one buffer; a small cap covers nested lifetimes.
constexpr std::size_t kL1PoolCap = 4;
}  // namespace

L1PoolStats l1_pool_stats() { return {g_l1_pool_hits, g_l1_pool_misses}; }

std::vector<std::vector<MemSys::Way>>& MemSys::l1_pool() {
  thread_local std::vector<std::vector<Way>> pool;
  return pool;
}

MemSys::MemSys(const Config& cfg, Stats& stats) : stats_(stats) {
  const std::size_t need = static_cast<std::size_t>(cfg.num_cpus) * kCpuStride;
  // Recycle a pooled backing buffer when one is big enough: assign() memsets
  // it back to the all-invalid state without any allocator round trip.
  auto& pool = l1_pool();
  for (std::size_t i = pool.size(); i-- > 0;) {
    if (pool[i].capacity() >= need) {
      l1_ = std::move(pool[i]);
      pool[i] = std::move(pool.back());
      pool.pop_back();
      ++g_l1_pool_hits;
      break;
    }
  }
  if (l1_.capacity() < need) ++g_l1_pool_misses;
  l1_.assign(need, Way{});
  spec_ways_.resize(static_cast<std::size_t>(cfg.num_cpus));
}

MemSys::~MemSys() {
  auto& pool = l1_pool();
  if (pool.size() < kL1PoolCap && l1_.capacity() > 0)
    pool.push_back(std::move(l1_));
}

MemSys::Way* MemSys::find(int cpu, LineAddr line) {
  Way* c = l1_of(cpu);
  const std::size_t set = static_cast<std::size_t>(line & kSetMask) * Config::kL1Ways;
  for (std::size_t i = 0; i < Config::kL1Ways; ++i) {
    Way& w = c[set + i];
    if (w.state != St::I && w.line == line) return &w;
  }
  return nullptr;
}

MemSys::Way& MemSys::victim(int cpu, LineAddr line) {
  Way* c = l1_of(cpu);
  const std::size_t set = static_cast<std::size_t>(line & kSetMask) * Config::kL1Ways;
  Way* best = &c[set];
  for (std::size_t i = 0; i < Config::kL1Ways; ++i) {
    Way& w = c[set + i];
    if (w.state == St::I) return w;
    if (w.lru < best->lru) best = &w;
  }
  evict(cpu, *best);
  return *best;
}

void MemSys::dir_remove_cpu(LineAddr line, int cpu) {
  Dir* d = dir_.find(line);
  if (d == nullptr) return;
  d->sharers.clear(cpu);
  if (d->owner == cpu) d->owner = -1;
  if (d->sharers.none() && d->owner < 0) dir_.erase(line);
}

void MemSys::evict(int cpu, Way& w) {
  if (w.state == St::I) return;
  // Note: a TCC L1 must not evict speculatively written lines; real hardware
  // would stall or overflow-serialize.  We evict silently and rely on the TM
  // layer's write buffer for values; only timing fidelity is lost, and the
  // benchmarks' write sets fit in L1 anyway.
  dir_remove_cpu(w.line, cpu);
  w.state = St::I;
  w.spec_dirty = false;
}

void MemSys::drop_from(int cpu, LineAddr line) {
  if (Way* w = find(cpu, line)) {
    w->state = St::I;
    w->spec_dirty = false;
  }
  dir_remove_cpu(line, cpu);
}

std::uint64_t MemSys::plain_load(int cpu, std::uintptr_t addr, std::uint64_t t) {
  stats_.cpu(cpu).loads++;
  const LineAddr line = line_of(addr);
  if (Way* w = find(cpu, line)) {
    w->lru = ++lru_tick_;
    return t + Config::kL1HitCycles;
  }
  stats_.cpu(cpu).l1_misses++;
  if (tracer_ != nullptr)
    tracer_->on_miss(cpu, t, line, trace::MissClass::kPlainLoad);
  // Work on a copy: victim() below may evict other lines, which mutates the
  // directory table and would invalidate a live Dir pointer.
  Dir d = *dir_.try_emplace(line, Dir{}).first;
  std::uint32_t occ = Config::kBusXferCycles;
  if (d.owner >= 0 && d.owner != cpu) {
    // Another CPU holds the line exclusively (E or M): downgrade it to S,
    // paying a writeback only if the copy was dirty.
    if (Way* ow = find(d.owner, line)) {
      if (ow->state == St::M) occ += Config::kWritebackCycles;
      ow->state = St::S;
    }
    d.sharers.set(d.owner);
    d.owner = -1;
  }
  const std::uint64_t done =
      bus_.transact(t, Config::kBusArbCycles, occ) + Config::kL2HitCycles;
  Way& w = victim(cpu, line);
  w.line = line;
  w.lru = ++lru_tick_;
  w.spec_dirty = false;
  w.state = d.sharers.none() ? St::E : St::S;
  if (w.state == St::E) d.owner = cpu;
  d.sharers.set(cpu);
  *dir_.try_emplace(line, Dir{}).first = d;
  return done;
}

std::uint64_t MemSys::plain_store(int cpu, std::uintptr_t addr, std::uint64_t t) {
  stats_.cpu(cpu).stores++;
  const LineAddr line = line_of(addr);
  Way* w = find(cpu, line);
  if (w != nullptr && w->state == St::M) {
    w->lru = ++lru_tick_;
    return t + Config::kL1HitCycles;
  }
  if (w != nullptr && w->state == St::E) {
    w->state = St::M;
    w->lru = ++lru_tick_;
    dir_.try_emplace(line, Dir{}).first->owner = cpu;
    return t + Config::kL1HitCycles;
  }
  // Upgrade (S) or read-for-ownership (miss): invalidate all other copies.
  // Batched like invalidate_copies: the entry is overwritten wholesale at
  // the end, so the per-sharer directory bookkeeping drop_from would do is
  // dead work — only the L1 ways need dropping.  An exclusive owner is
  // always in the sharer mask (plain_load/plain_store maintain that), so
  // the walk below covers it; its writeback charge is read off first.
  Dir d{};
  if (const Dir* p = dir_.find(line)) d = *p;
  std::uint32_t occ = (w != nullptr) ? 0 : Config::kBusXferCycles;
  if (d.owner >= 0 && d.owner != cpu) {
    if (Way* ow = find(d.owner, line); ow != nullptr && ow->state == St::M)
      occ += Config::kWritebackCycles;
  }
  d.sharers.for_each_except(cpu, [&](int c) {
    if (Way* ow = find(c, line)) {
      ow->state = St::I;
      ow->spec_dirty = false;
    }
  });
  const bool was_miss = (w == nullptr);
  if (was_miss) {
    stats_.cpu(cpu).l1_misses++;
    if (tracer_ != nullptr)
      tracer_->on_miss(cpu, t, line, trace::MissClass::kPlainStore);
  }
  const std::uint64_t done =
      bus_.transact(t, Config::kBusArbCycles, occ) + (was_miss ? Config::kL2HitCycles : 0);
  if (w == nullptr) {
    w = &victim(cpu, line);
    w->line = line;
  }
  w->state = St::M;
  w->spec_dirty = false;
  w->lru = ++lru_tick_;
  *dir_.try_emplace(line, Dir{}).first = Dir{CpuMask::one(cpu), cpu};
  return done;
}

std::uint64_t MemSys::tx_load(int cpu, std::uintptr_t addr, std::uint64_t t) {
  stats_.cpu(cpu).loads++;
  const LineAddr line = line_of(addr);
  if (Way* w = find(cpu, line)) {
    w->lru = ++lru_tick_;
    return t + Config::kL1HitCycles;
  }
  stats_.cpu(cpu).l1_misses++;
  if (tracer_ != nullptr)
    tracer_->on_miss(cpu, t, line, trace::MissClass::kTxLoad);
  const std::uint64_t done =
      bus_.transact(t, Config::kBusArbCycles, Config::kBusXferCycles) + Config::kL2HitCycles;
  Way& w = victim(cpu, line);
  w.line = line;
  w.state = St::S;  // "valid" in TCC mode
  w.spec_dirty = false;
  w.lru = ++lru_tick_;
  dir_.try_emplace(line, Dir{}).first->sharers.set(cpu);
  return done;
}

std::uint64_t MemSys::tx_store(int cpu, std::uintptr_t addr, std::uint64_t t) {
  stats_.cpu(cpu).stores++;
  const LineAddr line = line_of(addr);
  Way* w = find(cpu, line);
  std::uint64_t done = t + Config::kL1HitCycles;
  if (w == nullptr) {
    // Write-allocate: fetch the line so commit can merge into it.
    stats_.cpu(cpu).l1_misses++;
    if (tracer_ != nullptr)
      tracer_->on_miss(cpu, t, line, trace::MissClass::kTxStore);
    done = bus_.transact(t, Config::kBusArbCycles, Config::kBusXferCycles) +
           Config::kL2HitCycles;
    w = &victim(cpu, line);
    w->line = line;
    w->state = St::S;
    dir_.try_emplace(line, Dir{}).first->sharers.set(cpu);
  }
  if (!w->spec_dirty) {
    w->spec_dirty = true;  // buffered in cache, no bus traffic until commit
    spec_ways_[static_cast<std::size_t>(cpu)].push_back(
        static_cast<std::uint32_t>(w - l1_of(cpu)));
  }
  w->lru = ++lru_tick_;
  return done;
}

std::uint64_t MemSys::tcc_commit(int cpu, std::size_t write_lines, std::uint64_t t) {
  const std::uint32_t occ =
      static_cast<std::uint32_t>(write_lines) * Config::kCommitLineCycles;
  std::uint64_t done = bus_.transact(t, Config::kCommitArbCycles, occ);
  // Mark own written lines as committed (no longer speculative).
  Way* c = l1_of(cpu);
  auto& sw = spec_ways_[static_cast<std::size_t>(cpu)];
  for (const std::uint32_t i : sw) c[i].spec_dirty = false;
  sw.clear();
  return done;
}

void MemSys::invalidate_copies(int committer, LineAddr line) {
  Dir* d = dir_.find(line);
  if (d == nullptr) return;
  // Batched drop: one directory probe for the whole broadcast.  The L1 way
  // invalidations never touch dir_, so holding d across them is safe; the
  // final sharer state is written back (or the entry erased) exactly once,
  // instead of a find+erase round trip per sharer (drop_from).
  d->sharers.for_each_except(committer, [&](int c) {
    if (Way* w = find(c, line)) {
      w->state = St::I;
      w->spec_dirty = false;
    }
  });
  const bool keep = d->sharers.test(committer);
  d->sharers.reset();
  if (keep) d->sharers.set(committer);
  if (d->owner != committer) d->owner = -1;
  if (!keep && d->owner < 0) dir_.erase(line);
}

void MemSys::abort_clear_speculative(int cpu) {
  Way* c = l1_of(cpu);
  auto& sw = spec_ways_[static_cast<std::size_t>(cpu)];
  for (const std::uint32_t i : sw) {
    Way& w = c[i];
    if (w.state != St::I && w.spec_dirty) {
      dir_remove_cpu(w.line, cpu);
      w.state = St::I;
      w.spec_dirty = false;
    }
  }
  sw.clear();
}

}  // namespace sim
