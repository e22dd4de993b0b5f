// Ablation benchmarks for the Section 5.1 design discussion:
//
//  A. isEmpty as primitive vs derived-from-size (the `if (!m.isEmpty())
//     m.put(k)` example),
//  B. blind puts vs value-returning puts on one hot key ("LastModified"),
//  C. segmented ConcurrentHashMap vs TransactionalMap under long
//     transactions (Section 2.4: segmentation only reduces the odds),
//  D. optimistic vs pessimistic semantic conflict detection,
//  E. contention managers (Polite / Aggressive / Karma) on a hot cell.
//
// Each configuration is an independent simulation, so the rows are
// NamedTasks on the harness driver pool: `--jobs N` runs them across host
// threads, `--only <substring>` selects a subset, and the printed tables
// are identical for every N (rows are merged in task order).
#include "bench/testmap_common.h"
#include "harness/driver.h"
#include "jstd/concurrenthashmap.h"

namespace {

using namespace bench;

std::string row(const char* name, sim::Engine& eng) {
  const sim::CpuStats s = eng.stats().summed();
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-44s %12llu %8llu %8llu %8llu", name,
                static_cast<unsigned long long>(eng.elapsed_cycles()),
                static_cast<unsigned long long>(s.violations),
                static_cast<unsigned long long>(s.semantic_violations),
                static_cast<unsigned long long>(s.lost_cycles));
  return buf;
}

// --- A: isEmpty primitive vs size()==0 ---

constexpr const char* kSectionA =
    "Ablation A (S5.1): isEmpty primitive vs size()-derived emptiness check";

std::string run_isempty(bool use_isempty) {
  sim::Engine eng(make_cfg(sim::Mode::kTcc, 8));
  atomos::Runtime rt(eng);
  tcc::TransactionalMap<long, long> map(std::make_unique<jstd::HashMap<long, long>>(1024));
  map.put(0, 0);  // never empty
  for (int c = 0; c < 8; ++c) {
    eng.spawn([&, c] {
      for (int i = 0; i < 40; ++i) {
        atomos::atomically([&] {
          const bool nonempty = use_isempty ? !map.is_empty() : map.size() != 0;
          if (nonempty) map.put(1000 + c * 100 + i, 1);  // unique keys
          if (atomos::work(600)) return;
        });
      }
    });
  }
  eng.run();
  return row(use_isempty ? "if (!m.isEmpty()) m.put(unique)" : "if (m.size()!=0) m.put(unique)",
             eng);
}

// --- B: blind put vs value-returning put on one hot key ---

constexpr const char* kSectionB =
    "Ablation B (S5.1): put_blind vs put on one hot key (LastModified pattern)";

std::string run_blindput(bool blind) {
  sim::Engine eng(make_cfg(sim::Mode::kTcc, 8));
  atomos::Runtime rt(eng);
  tcc::TransactionalMap<long, long> map(std::make_unique<jstd::HashMap<long, long>>(64));
  for (int c = 0; c < 8; ++c) {
    eng.spawn([&, c] {
      for (int i = 0; i < 40; ++i) {
        atomos::atomically([&] {
          if (blind) {
            map.put_blind(7, c * 1000 + i);  // "LastModified = now"
          } else {
            (void)map.put(7, c * 1000 + i);  // reads the old value too
          }
          if (atomos::work(600)) return;
        });
      }
    });
  }
  eng.run();
  return row(blind ? "map.put_blind(LastModified, now)" : "map.put(LastModified, now)", eng);
}

// --- C: segmented map vs transactional wrapper under long transactions ---

constexpr const char* kSectionC =
    "Ablation C (S2.4): segmented ConcurrentHashMap vs TransactionalMap, long txns";

enum class MapKind { kPlain, kSegmented, kTransactional };

std::string run_segmented(const char* name, MapKind kind, int cpus = 16) {
  sim::Engine eng(make_cfg(sim::Mode::kTcc, cpus));
  atomos::Runtime rt(eng);
  std::unique_ptr<jstd::Map<long, long>> map;
  switch (kind) {
    case MapKind::kPlain:
      map = std::make_unique<jstd::HashMap<long, long>>(1024);
      break;
    case MapKind::kSegmented:
      map = std::make_unique<jstd::ConcurrentHashMap<long, long>>(16, 64);
      break;
    case MapKind::kTransactional:
      map = std::make_unique<tcc::TransactionalMap<long, long>>(
          std::make_unique<jstd::HashMap<long, long>>(1024));
      break;
  }
  TestMapParams p;
  p.think_cycles = 1500;
  for (long k = 0; k < p.prepopulate; ++k) map->put(k * 2 % p.key_space, k);
  for (int c = 0; c < cpus; ++c) {
    eng.spawn([&, c] {
      std::uint64_t s = 99 + static_cast<std::uint64_t>(c) * 17;
      // Update-heavy: several inserts/removes per transaction, so the
      // chance that two transactions touch the same SEGMENT stays high.
      for (int i = 0; i < 20; ++i) {
        const std::uint64_t body_seed = s;
        atomos::atomically([&] {
          std::uint64_t bs = body_seed;
          for (int j = 0; j < 4; ++j) {
            const long key = static_cast<long>(rnd(bs) % 512);
            if (rnd(bs) % 2 == 0) {
              map->put(key, key);
            } else {
              map->remove(key);
            }
          }
          if (atomos::work(p.think_cycles)) return;
        });
        for (int j = 0; j < 8; ++j) rnd(s);
      }
    });
  }
  eng.run();
  return row(name, eng);
}

// --- D: optimistic vs pessimistic detection ---

constexpr const char* kSectionD =
    "Ablation D (S5.1): optimistic vs pessimistic semantic detection, hot keys";

std::string run_pessimistic(tcc::Detection det) {
  sim::Engine eng(make_cfg(sim::Mode::kTcc, 8));
  atomos::Runtime rt(eng);
  tcc::TransactionalMap<long, long> map(std::make_unique<jstd::HashMap<long, long>>(256), det);
  for (long k = 0; k < 8; ++k) map.put(k, k);
  for (int c = 0; c < 8; ++c) {
    eng.spawn([&, c] {
      std::uint64_t s = 5 + static_cast<std::uint64_t>(c);
      for (int i = 0; i < 30; ++i) {
        const std::uint64_t body_seed = s;
        atomos::atomically([&] {
          std::uint64_t bs = body_seed;
          const long key = static_cast<long>(rnd(bs) % 8);  // tiny key space
          (void)map.get(key);
          if (atomos::work(400)) return;
          map.put(key, static_cast<long>(i));
          if (atomos::work(400)) return;
        });
        rnd(s);
        rnd(s);
      }
    });
  }
  eng.run();
  return row(det == tcc::Detection::kOptimistic ? "optimistic (commit-time detection)"
                                                : "pessimistic (operation-time dooming)",
             eng);
}

// --- E: contention managers ---

constexpr const char* kSectionE =
    "Ablation E (S5.1): contention managers on a contended cell";

enum class Cm { kPolite, kAggressive, kKarma };

std::string run_contention(const char* name, Cm which) {
  std::unique_ptr<atomos::ContentionManager> cm;
  switch (which) {
    case Cm::kPolite: cm = std::make_unique<atomos::PoliteBackoff>(); break;
    case Cm::kAggressive: cm = std::make_unique<atomos::AggressiveRetry>(); break;
    case Cm::kKarma: cm = std::make_unique<atomos::KarmaBackoff>(); break;
  }
  sim::Engine eng(make_cfg(sim::Mode::kTcc, 8));
  atomos::Runtime rt(eng, std::move(cm));
  atomos::Shared<long> hot(0, sim::kDataCell);
  for (int c = 0; c < 8; ++c) {
    eng.spawn([&] {
      for (int i = 0; i < 40; ++i) {
        atomos::atomically([&] {
          hot.set(hot.get() + 1);
          if (atomos::work(300)) return;
        });
      }
    });
  }
  eng.run();
  return row(name, eng);
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli = harness::Cli::parse(argc, argv, "ablations");

  std::vector<harness::NamedTask> tasks;
  tasks.push_back({kSectionA, "isEmpty primitive", [] { return run_isempty(true); }});
  tasks.push_back({kSectionA, "size()!=0 derived", [] { return run_isempty(false); }});
  tasks.push_back({kSectionB, "put_blind", [] { return run_blindput(true); }});
  tasks.push_back({kSectionB, "put", [] { return run_blindput(false); }});
  tasks.push_back({kSectionC, "plain HashMap", [] {
                     return run_segmented("plain HashMap (1 size field)", MapKind::kPlain);
                   }});
  tasks.push_back({kSectionC, "ConcurrentHashMap", [] {
                     return run_segmented("ConcurrentHashMap (16 segments)",
                                          MapKind::kSegmented);
                   }});
  tasks.push_back({kSectionC, "TransactionalMap", [] {
                     return run_segmented("TransactionalMap (semantic locks)",
                                          MapKind::kTransactional);
                   }});
  // CPU-width sweep of the same contrast: per-CPU work is fixed, so these
  // rows show how segment vs semantic conflict odds scale as the engine's
  // CPU axis widens past the paper's 16/32 (16 segments saturate long
  // before 128 writers do).
  tasks.push_back({kSectionC, "ConcurrentHashMap @64", [] {
                     return run_segmented("ConcurrentHashMap (16 segments) @64cpu",
                                          MapKind::kSegmented, 64);
                   }});
  tasks.push_back({kSectionC, "TransactionalMap @64", [] {
                     return run_segmented("TransactionalMap (semantic locks) @64cpu",
                                          MapKind::kTransactional, 64);
                   }});
  tasks.push_back({kSectionC, "ConcurrentHashMap @128", [] {
                     return run_segmented("ConcurrentHashMap (16 segments) @128cpu",
                                          MapKind::kSegmented, 128);
                   }});
  tasks.push_back({kSectionC, "TransactionalMap @128", [] {
                     return run_segmented("TransactionalMap (semantic locks) @128cpu",
                                          MapKind::kTransactional, 128);
                   }});
  tasks.push_back({kSectionD, "optimistic",
                   [] { return run_pessimistic(tcc::Detection::kOptimistic); }});
  tasks.push_back({kSectionD, "pessimistic",
                   [] { return run_pessimistic(tcc::Detection::kPessimistic); }});
  tasks.push_back({kSectionE, "PoliteBackoff", [] {
                     return run_contention("PoliteBackoff (exponential + jitter)", Cm::kPolite);
                   }});
  tasks.push_back({kSectionE, "AggressiveRetry", [] {
                     return run_contention("AggressiveRetry (no backoff)", Cm::kAggressive);
                   }});
  tasks.push_back({kSectionE, "KarmaBackoff", [] {
                     return run_contention("KarmaBackoff (losers back off less)", Cm::kKarma);
                   }});

  const std::vector<harness::TaskRow> rows = harness::run_tasks(tasks, cli.opts);

  bool any_poisoned = false;
  std::string open_section;
  for (const harness::TaskRow& r : rows) {
    if (r.section != open_section) {
      std::printf("\n=== %s ===\n%-44s %12s %8s %8s %8s\n", r.section.c_str(),
                  "configuration", "cycles", "viol", "sem", "lost");
      open_section = r.section;
    }
    if (r.poisoned) {
      any_poisoned = true;
      std::printf("%-44s POISONED: %s\n", r.name.c_str(), r.error.c_str());
    } else {
      std::printf("%s\n", r.text.c_str());
    }
  }
  std::fflush(stdout);
  return any_poisoned ? 1 : 0;
}
