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

MemSys::Way* MemSys::find(int cpu, LineAddr line, std::uint64_t version) {
  Way* set = set_of(cpu, line);
  const auto tag = static_cast<std::uint32_t>(line);
  for (std::size_t i = 0; i < Config::kL1Ways; ++i) {
    Way& w = set[i];
    if (w.line == tag && w.version == version && w.state != St::I) return &w;
  }
  return nullptr;
}

bool MemSys::valid(const Way& w) const {
  return w.state != St::I && w.version == lines_.find(w.line)->version;
}

// A stale way counts as invalid: the first invalid or stale way in index
// order is taken, and only a set of valid ways evicts its least-recent one.
MemSys::Way& MemSys::victim(int cpu, LineAddr line) {
  Way* set = set_of(cpu, line);
  Way* best = set;
  for (std::size_t i = 0; i < Config::kL1Ways; ++i) {
    Way& w = set[i];
    if (!valid(w)) return w;
    if (w.lru < best->lru) best = &w;
  }
  evict(cpu, *best);
  return *best;
}

// Drops `cpu`'s valid way `w`, with its sharer bit and any ownership.
void MemSys::evict(int cpu, Way& w) {
  // Note: a TCC L1 must not evict speculatively written lines; real hardware
  // would stall or overflow-serialize.  We evict silently and rely on the TM
  // layer's write buffer for values; only timing fidelity is lost, and the
  // benchmarks' write sets fit in L1 anyway.
  Line& rec = *lines_.find(w.line);
  rec.sharers.clear(cpu);
  if (rec.owner == cpu) rec.owner = -1;
  w.state = St::I;
  w.spec_dirty = false;
}

// Every fill writes the state, the version and a clear spec_dirty: a stale
// victim may still carry the flag of the copy it was.
void MemSys::fill(Way& w, LineAddr line, const Line& rec, St state) {
  w.line = static_cast<std::uint32_t>(line);
  w.state = state;
  w.spec_dirty = false;
  w.version = rec.version;
}

std::uint64_t MemSys::plain_load(int cpu, std::uintptr_t addr, std::uint64_t t) {
  stats_.cpu(cpu).loads++;
  const LineAddr line = line_of(addr);
  Line& rec = lines_.at(line);
  if (Way* w = find(cpu, line, rec.version)) {
    w->lru = ++lru_tick_;
    return t + Config::kL1HitCycles;
  }
  stats_.cpu(cpu).l1_misses++;
  if (tracer_ != nullptr)
    tracer_->on_miss(cpu, t, line, trace::MissClass::kPlainLoad);
  std::uint32_t occ = Config::kBusXferCycles;
  if (rec.owner >= 0 && rec.owner != cpu) {
    // Another CPU holds the line exclusively (E or M): downgrade it to S,
    // paying a writeback only if the copy was dirty.
    if (Way* ow = find(rec.owner, line, rec.version)) {
      if (ow->state == St::M) occ += Config::kWritebackCycles;
      ow->state = St::S;
    }
    rec.sharers.set(rec.owner);
    rec.owner = -1;
  }
  const std::uint64_t done =
      bus_.transact(t, Config::kBusArbCycles, occ) + Config::kL2HitCycles;
  Way& w = victim(cpu, line);
  fill(w, line, rec, rec.sharers.none() ? St::E : St::S);
  w.lru = ++lru_tick_;
  if (w.state == St::E) rec.owner = cpu;
  rec.sharers.set(cpu);
  return done;
}

std::uint64_t MemSys::plain_store(int cpu, std::uintptr_t addr, std::uint64_t t) {
  stats_.cpu(cpu).stores++;
  const LineAddr line = line_of(addr);
  Line& rec = lines_.at(line);
  Way* w = find(cpu, line, rec.version);
  if (w != nullptr && w->state == St::M) {
    w->lru = ++lru_tick_;
    return t + Config::kL1HitCycles;
  }
  if (w != nullptr && w->state == St::E) {
    w->state = St::M;
    w->lru = ++lru_tick_;
    rec.owner = cpu;
    return t + Config::kL1HitCycles;
  }
  // Upgrade (S) or read-for-ownership (miss): invalidate all other copies.
  // An exclusive owner is always a sharer, so the bump below covers it; its
  // writeback charge is read off first.
  std::uint32_t occ = (w != nullptr) ? 0 : Config::kBusXferCycles;
  if (rec.owner >= 0 && rec.owner != cpu) {
    if (Way* ow = find(rec.owner, line, rec.version); ow != nullptr && ow->state == St::M)
      occ += Config::kWritebackCycles;
  }
  CpuMask others = rec.sharers;
  others.clear(cpu);
  if (others.any()) ++rec.version;  // every copy but the one re-stamped below
  const bool was_miss = (w == nullptr);
  if (was_miss) {
    stats_.cpu(cpu).l1_misses++;
    if (tracer_ != nullptr)
      tracer_->on_miss(cpu, t, line, trace::MissClass::kPlainStore);
  }
  const std::uint64_t done =
      bus_.transact(t, Config::kBusArbCycles, occ) + (was_miss ? Config::kL2HitCycles : 0);
  if (w == nullptr) w = &victim(cpu, line);
  fill(*w, line, rec, St::M);
  w->lru = ++lru_tick_;
  rec.sharers = CpuMask::one(cpu);
  rec.owner = cpu;
  return done;
}

std::uint64_t MemSys::tx_load(int cpu, std::uintptr_t addr, std::uint64_t t) {
  stats_.cpu(cpu).loads++;
  const LineAddr line = line_of(addr);
  Line& rec = lines_.at(line);
  if (Way* w = find(cpu, line, rec.version)) {
    w->lru = ++lru_tick_;
    return t + Config::kL1HitCycles;
  }
  stats_.cpu(cpu).l1_misses++;
  if (tracer_ != nullptr)
    tracer_->on_miss(cpu, t, line, trace::MissClass::kTxLoad);
  const std::uint64_t done =
      bus_.transact(t, Config::kBusArbCycles, Config::kBusXferCycles) + Config::kL2HitCycles;
  Way& w = victim(cpu, line);
  fill(w, line, rec, St::S);  // S is "valid" in TCC mode
  w.lru = ++lru_tick_;
  rec.sharers.set(cpu);
  return done;
}

std::uint64_t MemSys::tx_store(int cpu, std::uintptr_t addr, std::uint64_t t) {
  stats_.cpu(cpu).stores++;
  const LineAddr line = line_of(addr);
  Line& rec = lines_.at(line);
  Way* w = find(cpu, line, rec.version);
  std::uint64_t done = t + Config::kL1HitCycles;
  if (w == nullptr) {
    // Write-allocate: fetch the line so commit can merge into it.
    stats_.cpu(cpu).l1_misses++;
    if (tracer_ != nullptr)
      tracer_->on_miss(cpu, t, line, trace::MissClass::kTxStore);
    done = bus_.transact(t, Config::kBusArbCycles, Config::kBusXferCycles) +
           Config::kL2HitCycles;
    w = &victim(cpu, line);
    fill(*w, line, rec, St::S);
    rec.sharers.set(cpu);
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
  Line* rec = lines_.find(line);
  if (rec == nullptr) return;
  CpuMask others = rec->sharers;
  others.clear(committer);
  if (others.any()) {
    // One bump drops every other copy; the committer's own stays valid.
    Way* own = find(committer, line, rec->version);
    ++rec->version;
    if (own != nullptr) own->version = rec->version;
  }
  const bool keep = rec->sharers.test(committer);
  rec->sharers.reset();
  if (keep) rec->sharers.set(committer);
  if (rec->owner != committer) rec->owner = -1;
}

void MemSys::abort_clear_speculative(int cpu) {
  Way* c = l1_of(cpu);
  auto& sw = spec_ways_[static_cast<std::size_t>(cpu)];
  for (const std::uint32_t i : sw) {
    Way& w = c[i];
    if (w.spec_dirty && valid(w)) evict(cpu, w);
  }
  sw.clear();
}

}  // namespace sim
