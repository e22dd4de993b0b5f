// Scheduler-structure equivalence goldens.
//
// The engine's scheduling decision was rewritten from an O(N) linear scan
// over every virtual CPU to an indexed runnable heap with a direct
// fiber-to-fiber dispatch fast path (DESIGN.md §12).  These tables pin the
// EXACT per-figure simulated-cycle totals at every CPU width the original
// scan shipped with (1..32) — the rows were emitted by the PRE-CHANGE
// engine, so any drift means the indexed scheduler picked a different fiber
// or handed out a different run limit somewhere.
//
// This deliberately overlaps golden_cycles_test at 1..8 CPUs and extends the
// pin to 16 and 32, where scheduling-order mistakes (tie-breaks, stale heap
// entries, run-limit snapshots) are far more likely to surface.  A third
// table, emitted by the heap engine before the runq became a tournament
// tree, pins widths no figure uses: CPU counts that are not powers of two,
// and fewer workers than virtual CPUs, each with and without a pass-through
// SchedulerHook.
//
// To re-pin after an intentional cost-model change, run with
// TCC_PRINT_GOLDEN=1 and paste the emitted rows.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/testmap_common.h"
#include "sim/engine.h"

namespace {

using namespace bench;

struct GoldenRow {
  const char* series;
  int cpus;
  std::uint64_t cycles;
};

TestMapParams small_params() {
  TestMapParams p;
  p.total_ops = 640;
  p.think_cycles = 1000;
  p.seed = 12345;
  return p;
}

void check_goldens(const char* tag, const std::vector<harness::Series>& series,
                   const GoldenRow* golden, std::size_t n_golden) {
  const bool print = std::getenv("TCC_PRINT_GOLDEN") != nullptr;
  const std::vector<int> cpu_counts = {1, 2, 4, 8, 16, 32};
  std::size_t idx = 0;
  for (const harness::Series& s : series) {
    for (int cpus : cpu_counts) {
      harness::RunResult r;
      r.series = s.name;
      r.cpus = cpus;
      s.run(cpus, /*seed_salt=*/0, r);
      if (print) {
        std::printf("    {\"%s\", %d, %lluULL},  // %s\n", s.name.c_str(), cpus,
                    static_cast<unsigned long long>(r.cycles), tag);
        continue;
      }
      ASSERT_LT(idx, n_golden) << tag << ": golden table too short";
      SCOPED_TRACE(std::string(tag) + " series=" + s.name + " cpus=" + std::to_string(cpus));
      EXPECT_EQ(golden[idx].series, s.name);
      EXPECT_EQ(golden[idx].cpus, cpus);
      EXPECT_EQ(golden[idx].cycles, r.cycles);
      ++idx;
    }
  }
  if (!print) {
    EXPECT_EQ(idx, n_golden) << tag << ": golden table too long";
  }
}

TEST(SchedEquivCycles, Fig1TestMapAllWidths) {
  TestMapParams p = small_params();
  auto make_hash = [&p] {
    return std::make_unique<jstd::HashMap<long, long>>(static_cast<std::size_t>(p.key_space) * 2);
  };
  auto make_wrapped = [&p, make_hash]() -> std::unique_ptr<jstd::Map<long, long>> {
    return std::make_unique<tcc::TransactionalMap<long, long>>(make_hash());
  };
  const std::vector<harness::Series> series = {
      java_series("Java HashMap", p, make_hash),
      atomos_series("Atomos HashMap", p, make_hash),
      atomos_series("Atomos TransactionalMap", p, make_wrapped),
  };
  static const GoldenRow kFig1Golden[] = {
      {"Java HashMap", 1, 647182ULL},
      {"Java HashMap", 2, 333753ULL},
      {"Java HashMap", 4, 168568ULL},
      {"Java HashMap", 8, 85720ULL},
      {"Java HashMap", 16, 49909ULL},
      {"Java HashMap", 32, 52336ULL},
      {"Atomos HashMap", 1, 647607ULL},
      {"Atomos HashMap", 2, 329155ULL},
      {"Atomos HashMap", 4, 170645ULL},
      {"Atomos HashMap", 8, 89292ULL},
      {"Atomos HashMap", 16, 61662ULL},
      {"Atomos HashMap", 32, 63785ULL},
      {"Atomos TransactionalMap", 1, 666651ULL},
      {"Atomos TransactionalMap", 2, 335469ULL},
      {"Atomos TransactionalMap", 4, 169005ULL},
      {"Atomos TransactionalMap", 8, 85448ULL},
      {"Atomos TransactionalMap", 16, 43279ULL},
      {"Atomos TransactionalMap", 32, 22585ULL},
  };
  check_goldens("fig1", series, kFig1Golden, std::size(kFig1Golden));
}

TEST(SchedEquivCycles, Fig2TestSortedMapAllWidths) {
  TestMapParams p = small_params();
  auto make_tree = [] { return std::make_unique<jstd::TreeMap<long, long>>(); };
  auto make_wrapped = [make_tree]() -> std::unique_ptr<jstd::Map<long, long>> {
    return std::make_unique<tcc::TransactionalSortedMap<long, long>>(make_tree());
  };
  const std::vector<harness::Series> series = {
      java_series("Java TreeMap", p, make_tree),
      atomos_series("Atomos TreeMap", p, make_tree),
      atomos_series("Atomos TransactionalSortedMap", p, make_wrapped),
  };
  static const GoldenRow kFig2Golden[] = {
      {"Java TreeMap", 1, 657765ULL},
      {"Java TreeMap", 2, 341828ULL},
      {"Java TreeMap", 4, 174911ULL},
      {"Java TreeMap", 8, 96235ULL},
      {"Java TreeMap", 16, 89017ULL},
      {"Java TreeMap", 32, 94071ULL},
      {"Atomos TreeMap", 1, 658742ULL},
      {"Atomos TreeMap", 2, 352480ULL},
      {"Atomos TreeMap", 4, 195291ULL},
      {"Atomos TreeMap", 8, 109805ULL},
      {"Atomos TreeMap", 16, 77188ULL},
      {"Atomos TreeMap", 32, 74319ULL},
      {"Atomos TransactionalSortedMap", 1, 736760ULL},
      {"Atomos TransactionalSortedMap", 2, 378132ULL},
      {"Atomos TransactionalSortedMap", 4, 197208ULL},
      {"Atomos TransactionalSortedMap", 8, 103397ULL},
      {"Atomos TransactionalSortedMap", 16, 64922ULL},
      {"Atomos TransactionalSortedMap", 32, 51847ULL},
  };
  check_goldens("fig2", series, kFig2Golden, std::size(kFig2Golden));
}

/// Defers every decision to the engine's own policy.
class PassThroughHook final : public sim::SchedulerHook {
 public:
  int pick(const std::vector<int>& /*runnable*/) override { return kUseDefault; }
};

struct OddWidthRow {
  const char* series;
  int cpus;     // Config::num_cpus
  int workers;  // spawned workers; CPUs past them never become runnable
  std::uint64_t cycles;
};

/// fig1's small "Java HashMap" or "Atomos TransactionalMap" body on
/// `workers` of `cpus` virtual CPUs.
std::uint64_t run_odd_width(const std::string& series, int cpus, int workers,
                            sim::SchedulerHook* hook) {
  const TestMapParams p = small_params();
  const bool java = series == "Java HashMap";
  sim::Engine eng(make_cfg(java ? sim::Mode::kLock : sim::Mode::kTcc, cpus));
  eng.set_scheduler_hook(hook);
  atomos::Runtime rt(eng);
  std::unique_ptr<jstd::Map<long, long>> map =
      std::make_unique<jstd::HashMap<long, long>>(static_cast<std::size_t>(p.key_space) * 2);
  if (!java) map = std::make_unique<tcc::TransactionalMap<long, long>>(std::move(map));
  for (long k = 0; k < p.prepopulate; ++k) map->put(k * 2 % p.key_space, k);
  atomos::Mutex mu;
  const int per_cpu = p.total_ops / workers;
  for (int c = 0; c < workers; ++c) {
    eng.spawn([&, c] {
      std::uint64_t s = p.seed + static_cast<std::uint64_t>(c) * 7919;
      for (int i = 0; i < per_cpu; ++i) {
        if (java) {
          (void)atomos::work(p.think_cycles / 2);
          {
            atomos::LockGuard g(mu);
            testmap_op(*map, p.key_space, s);
          }
          (void)atomos::work(p.think_cycles / 2);
          continue;
        }
        const std::uint64_t body_seed = s;
        atomos::atomically([&] {
          std::uint64_t bs = body_seed;
          if (atomos::work(p.think_cycles / 2)) return;
          testmap_op(*map, p.key_space, bs);
          if (atomos::work(p.think_cycles / 2)) return;
        });
        rnd(s);
        rnd(s);
      }
    });
  }
  eng.run();
  return eng.elapsed_cycles();
}

TEST(SchedEquivCycles, OddWidthsAndIdleCpusWithAndWithoutHook) {
  // {8, 8} anchors the runner to the fig1 goldens above.  The rest put
  // runnable CPUs in padding-adjacent leaves (3, 5, 6, 12, 33, 100 CPUs) or
  // leave leaves that are never filled (3 of 8, 9 of 16, 77 of 128).
  static const OddWidthRow kOddGolden[] = {
      {"Java HashMap", 8, 8, 85720ULL},
      {"Java HashMap", 3, 3, 223274ULL},
      {"Java HashMap", 5, 5, 135218ULL},
      {"Java HashMap", 6, 6, 112402ULL},
      {"Java HashMap", 12, 12, 57995ULL},
      {"Java HashMap", 33, 33, 51637ULL},
      {"Java HashMap", 100, 100, 50842ULL},
      {"Java HashMap", 8, 3, 223274ULL},
      {"Java HashMap", 16, 9, 76374ULL},
      {"Java HashMap", 128, 77, 52284ULL},
      {"Atomos TransactionalMap", 8, 8, 85448ULL},
      {"Atomos TransactionalMap", 3, 3, 224388ULL},
      {"Atomos TransactionalMap", 5, 5, 135639ULL},
      {"Atomos TransactionalMap", 6, 6, 112655ULL},
      {"Atomos TransactionalMap", 12, 12, 56888ULL},
      {"Atomos TransactionalMap", 33, 33, 21755ULL},
      {"Atomos TransactionalMap", 100, 100, 13266ULL},
      {"Atomos TransactionalMap", 8, 3, 224388ULL},
      {"Atomos TransactionalMap", 16, 9, 75795ULL},
      {"Atomos TransactionalMap", 128, 77, 16034ULL},
  };
  const bool print = std::getenv("TCC_PRINT_GOLDEN") != nullptr;
  for (const OddWidthRow& row : kOddGolden) {
    const std::uint64_t bare = run_odd_width(row.series, row.cpus, row.workers, nullptr);
    if (print) {
      std::printf("      {\"%s\", %d, %d, %lluULL},\n", row.series, row.cpus, row.workers,
                  static_cast<unsigned long long>(bare));
      continue;
    }
    SCOPED_TRACE(std::string(row.series) + " cpus=" + std::to_string(row.cpus) +
                 " workers=" + std::to_string(row.workers));
    EXPECT_EQ(bare, row.cycles);
    PassThroughHook hook;
    EXPECT_EQ(run_odd_width(row.series, row.cpus, row.workers, &hook), row.cycles);
  }
}

}  // namespace
