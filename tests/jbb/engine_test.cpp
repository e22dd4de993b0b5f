// SPECjbb2000-style engine tests: every flavour must keep the TPC-C
// consistency invariants under concurrent high-contention execution on one
// warehouse; the Atomos flavours additionally differ (by design) in the
// amount of lost work they exhibit.
#include "jbb/engine.h"

#include <gtest/gtest.h>

#include <string>

namespace jbb {
namespace {

sim::Config cfg_for(Flavor f, int cpus) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = (f == Flavor::kJava) ? sim::Mode::kLock : sim::Mode::kTcc;
  return c;
}

/// Runs `ops_per_cpu` mixed operations on each of `cpus` virtual CPUs, all
/// hammering the single warehouse, then checks the consistency invariants.
OpCounts run_jbb(Flavor flavor, int cpus, int ops_per_cpu, std::string* why,
                 bool* consistent, std::uint64_t* violations = nullptr) {
  JbbConfig jc;
  jc.flavor = flavor;
  jc.districts = 4;  // fewer districts than CPUs: guaranteed contention
  jc.items = 64;
  jc.customers_per_district = 8;
  sim::Engine eng(cfg_for(flavor, cpus));
  atomos::Runtime rt(eng);
  Engine jbb(jc);
  OpCounts total;
  std::vector<OpCounts> per_cpu(static_cast<std::size_t>(cpus));
  for (int c = 0; c < cpus; ++c) {
    eng.spawn([&, c] {
      std::uint64_t rng = 7777 + static_cast<std::uint64_t>(c) * 131;
      for (int i = 0; i < ops_per_cpu; ++i) {
        const int d = static_cast<int>((rng >> 40) % static_cast<std::uint64_t>(jc.districts));
        jbb.run_mixed_op(d, rng, per_cpu[static_cast<std::size_t>(c)]);
      }
    });
  }
  eng.run();
  for (const auto& pc : per_cpu) {
    total.new_order += pc.new_order;
    total.payment += pc.payment;
    total.order_status += pc.order_status;
    total.delivery += pc.delivery;
    total.stock_level += pc.stock_level;
  }
  *consistent = jbb.check_consistency(why);
  if (violations != nullptr) *violations = eng.stats().total(&sim::CpuStats::violations);
  // All committed orders = seeded + successful NewOrders.
  EXPECT_EQ(jbb.committed_order_count(),
            jc.districts * kInitialOrdersPerDistrict + total.new_order);
  return total;
}

class JbbFlavorTest : public ::testing::TestWithParam<Flavor> {};

TEST_P(JbbFlavorTest, ConsistentUnderContention) {
  std::string why;
  bool ok = false;
  OpCounts counts = run_jbb(GetParam(), 8, 15, &why, &ok);
  EXPECT_TRUE(ok) << why;
  EXPECT_EQ(counts.total(), 8 * 15);
  EXPECT_GT(counts.new_order, 0);
  EXPECT_GT(counts.payment, 0);
}

INSTANTIATE_TEST_SUITE_P(AllFlavors, JbbFlavorTest,
                         ::testing::Values(Flavor::kJava, Flavor::kAtomosBaseline,
                                           Flavor::kAtomosOpen,
                                           Flavor::kAtomosTransactional,
                                           Flavor::kAtomosChopped),
                         [](const ::testing::TestParamInfo<Flavor>& info) {
                           switch (info.param) {
                             case Flavor::kJava: return "Java";
                             case Flavor::kAtomosBaseline: return "AtomosBaseline";
                             case Flavor::kAtomosOpen: return "AtomosOpen";
                             case Flavor::kAtomosTransactional: return "AtomosTransactional";
                             case Flavor::kAtomosChopped: return "AtomosChopped";
                           }
                           return "Unknown";
                         });

TEST(JbbTest, SingleCpuDeterministic) {
  auto run_once = [] {
    std::string why;
    bool ok = false;
    JbbConfig jc;
    jc.flavor = Flavor::kAtomosTransactional;
    jc.districts = 2;
    sim::Engine eng(cfg_for(jc.flavor, 1));
    atomos::Runtime rt(eng);
    Engine jbb(jc);
    OpCounts counts;
    eng.spawn([&] {
      std::uint64_t rng = 9;
      for (int i = 0; i < 30; ++i) jbb.run_mixed_op(i % 2, rng, counts);
    });
    eng.run();
    ok = jbb.check_consistency(&why);
    EXPECT_TRUE(ok) << why;
    // Logical outcomes are deterministic; cycle counts may differ slightly
    // across runs in one process because real heap addresses feed the cache
    // model (allocator layout varies between runs).
    return std::pair(eng.elapsed_cycles(), jbb.committed_order_count());
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.second, b.second);
  EXPECT_NEAR(static_cast<double>(a.first), static_cast<double>(b.first),
              0.05 * static_cast<double>(a.first));
}

TEST(JbbTest, TransactionalFlavorLosesLessWorkThanBaseline) {
  // The Figure 4 mechanism in miniature: at equal op counts the Baseline
  // flavour suffers more parent violations than the Transactional flavour.
  std::string why;
  bool ok = false;
  std::uint64_t base_viol = 0, tx_viol = 0;
  run_jbb(Flavor::kAtomosBaseline, 8, 15, &why, &ok, &base_viol);
  EXPECT_TRUE(ok) << why;
  run_jbb(Flavor::kAtomosTransactional, 8, 15, &why, &ok, &tx_viol);
  EXPECT_TRUE(ok) << why;
  EXPECT_GT(base_viol, tx_viol);
}

}  // namespace
}  // namespace jbb
