// Figure 4 shape regression: with arena-segregated virtual addressing
// (sim/vaddr.h) the Atomos Open flavour must beat Atomos Baseline on the
// single-warehouse SPECjbb workload — open-nested counters remove the
// global-statistic and UID conflicts from every parent's read/write set,
// which is the entire point of the paper's Open step.  Before the arena
// split, a construction-adjacency accident put the historyTable dispatch
// pointer on the same virtual line as the warehouse counters and Open
// *collapsed* below Baseline (0.00x at 32 CPUs); this test pins the
// recovery at the bench's 8-CPU configuration so a layout regression can't
// silently reintroduce the storm.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "jbb/engine.h"
#include "tm/runtime.h"

namespace jbb {
namespace {

struct RunOutcome {
  std::uint64_t cycles = 0;
  long ops = 0;
  long txn_count = 0;
  long seeded = 0;
};

/// Mirrors bench/fig4_specjbb.cpp's sweep-point body (same JbbConfig, same
/// seed schedule, salt 0) at a reduced op count.
RunOutcome run_fig4_point(Flavor flavor, int cpus, int total_ops) {
  const sim::Mode mode = flavor == Flavor::kJava ? sim::Mode::kLock : sim::Mode::kTcc;
  JbbConfig jc;
  jc.flavor = flavor;
  jc.districts = 10;
  jc.items = 2000;
  jc.customers_per_district = 60;
  jc.think_cycles = 1200;
  sim::Config cfg;
  cfg.mode = mode;
  cfg.num_cpus = cpus;
  sim::Engine eng(cfg);
  atomos::Runtime rt(eng);
  Engine engine(jc);
  RunOutcome out;
  out.seeded = jc.districts * kInitialOrdersPerDistrict;
  const int per_cpu = total_ops / cpus;
  std::vector<OpCounts> counts(static_cast<std::size_t>(cpus));
  for (int c = 0; c < cpus; ++c) {
    eng.spawn([&, c] {
      std::uint64_t rng = 4242 + static_cast<std::uint64_t>(c) * 6151;
      for (int i = 0; i < per_cpu; ++i) {
        const int d = static_cast<int>((rng >> 40) % 10);
        engine.run_mixed_op(d, rng, counts[static_cast<std::size_t>(c)]);
      }
    });
  }
  eng.run();
  std::string why;
  EXPECT_TRUE(engine.check_consistency(&why)) << why;
  for (const auto& pc : counts) out.ops += pc.total();
  out.cycles = eng.elapsed_cycles();
  out.txn_count = engine.warehouse().txn_count.unsafe_peek();
  return out;
}

TEST(Fig4ShapeTest, OpenBeatsBaselineAt8Cpus) {
  // Equal op counts, so lower cycles == higher normalized throughput.
  const RunOutcome baseline = run_fig4_point(Flavor::kAtomosBaseline, 8, 800);
  const RunOutcome open = run_fig4_point(Flavor::kAtomosOpen, 8, 800);
  EXPECT_EQ(baseline.ops, 800);
  EXPECT_EQ(open.ops, 800);
  EXPECT_LT(open.cycles, baseline.cycles)
      << "Atomos Open must beat Atomos Baseline (open nesting removes the "
         "warehouse statistic/UID conflicts); open=" << open.cycles
      << " baseline=" << baseline.cycles;
}

TEST(Fig4ShapeTest, WarehouseTxnCountIsExactInEveryFlavor) {
  // The per-warehouse transaction statistic must equal seeded NewOrders +
  // committed operations in every flavour: plain under locks (Java), rolled
  // back with the parent (Baseline), and abort-compensated when open-nested
  // (Open/Transactional) — the CompensatedCounter contract end to end.
  for (Flavor f : {Flavor::kJava, Flavor::kAtomosBaseline, Flavor::kAtomosOpen,
                   Flavor::kAtomosTransactional}) {
    const RunOutcome r = run_fig4_point(f, 8, 160);
    EXPECT_EQ(r.txn_count, r.seeded + r.ops)
        << "flavor=" << static_cast<int>(f);
  }
}

}  // namespace
}  // namespace jbb
