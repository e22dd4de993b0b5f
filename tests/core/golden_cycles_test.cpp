// Golden simulated-cycle regression tests.
//
// Pins the EXACT simulated-cycle totals of small fig1/fig2 configurations
// and of small jbb (fig4/fig6) and srv (fig5/fig6) points (fixed seeds,
// fixed op counts) so host-side data-structure and workload changes can
// never silently perturb the cost model: the simulator is deterministic,
// so any drift here means simulated *timing* changed, which is only
// allowed when the cost model itself is deliberately revised.
//
// To re-pin after an intentional cost-model change, run with
// TCC_PRINT_GOLDEN=1 and paste the emitted rows over the golden tables.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/testmap_common.h"
#include "jbb/engine.h"
#include "srv/workload.h"

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
                   const GoldenRow* golden, std::size_t n_golden,
                   const std::vector<int>& cpu_counts = {1, 2, 4, 8}) {
  const bool print = std::getenv("TCC_PRINT_GOLDEN") != nullptr;
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

TEST(GoldenCycles, Fig1TestMapSmall) {
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
      {"Atomos HashMap", 1, 647607ULL},
      {"Atomos HashMap", 2, 329155ULL},
      {"Atomos HashMap", 4, 170645ULL},
      {"Atomos HashMap", 8, 89292ULL},
      {"Atomos TransactionalMap", 1, 666651ULL},
      {"Atomos TransactionalMap", 2, 335469ULL},
      {"Atomos TransactionalMap", 4, 169005ULL},
      {"Atomos TransactionalMap", 8, 85448ULL},
  };
  check_goldens("fig1", series, kFig1Golden, std::size(kFig1Golden));
}

TEST(GoldenCycles, Fig2TestSortedMapSmall) {
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
      {"Atomos TreeMap", 1, 658742ULL},
      {"Atomos TreeMap", 2, 352480ULL},
      {"Atomos TreeMap", 4, 195291ULL},
      {"Atomos TreeMap", 8, 109805ULL},
      {"Atomos TransactionalSortedMap", 1, 736760ULL},
      {"Atomos TransactionalSortedMap", 2, 378132ULL},
      {"Atomos TransactionalSortedMap", 4, 197208ULL},
      {"Atomos TransactionalSortedMap", 8, 103397ULL},
  };
  check_goldens("fig2", series, kFig2Golden, std::size(kFig2Golden));
}

// All five jbb flavours at figure 4's configuration, through the sweep
// point figs 4 and 6 run.
TEST(GoldenCycles, JbbSmall) {
  const std::vector<harness::Series> series = {
      jbb::series("Java", jbb::fig4_config(jbb::Flavor::kJava), 160),
      jbb::series("Atomos Baseline", jbb::fig4_config(jbb::Flavor::kAtomosBaseline), 160),
      jbb::series("Atomos Open", jbb::fig4_config(jbb::Flavor::kAtomosOpen), 160),
      jbb::series("Atomos Transactional",
                  jbb::fig4_config(jbb::Flavor::kAtomosTransactional), 160),
      jbb::series("Atomos Chopped", jbb::fig4_config(jbb::Flavor::kAtomosChopped), 160),
  };
  static const GoldenRow kJbbGolden[] = {
      {"Java", 1, 438427ULL},
      {"Java", 2, 242543ULL},
      {"Java", 4, 129999ULL},
      {"Java", 8, 82174ULL},
      {"Atomos Baseline", 1, 408474ULL},
      {"Atomos Baseline", 2, 409280ULL},
      {"Atomos Baseline", 4, 433212ULL},
      {"Atomos Baseline", 8, 451599ULL},
      {"Atomos Open", 1, 412046ULL},
      {"Atomos Open", 2, 254532ULL},
      {"Atomos Open", 4, 266076ULL},
      {"Atomos Open", 8, 272376ULL},
      {"Atomos Transactional", 1, 433649ULL},
      {"Atomos Transactional", 2, 237943ULL},
      {"Atomos Transactional", 4, 131838ULL},
      {"Atomos Transactional", 8, 86889ULL},
      {"Atomos Chopped", 1, 434728ULL},
      {"Atomos Chopped", 2, 234373ULL},
      {"Atomos Chopped", 4, 122656ULL},
      {"Atomos Chopped", 8, 72943ULL},
  };
  check_goldens("jbb", series, kJbbGolden, std::size(kJbbGolden));
}

// All four srv flavours past saturation (load 1.2); run_server needs an
// accept CPU and at least one worker.
TEST(GoldenCycles, SrvSmall) {
  const std::vector<harness::Series> series = {
      srv::series(srv::Flavor::kLock, 1.2, 120),
      srv::series(srv::Flavor::kFlatTm, 1.2, 120),
      srv::series(srv::Flavor::kSemanticTm, 1.2, 120),
      srv::series(srv::Flavor::kChoppedTm, 1.2, 120),
  };
  static const GoldenRow kSrvGolden[] = {
      {"Lock load=1.2", 2, 193894ULL},
      {"Lock load=1.2", 4, 152716ULL},
      {"Lock load=1.2", 8, 148290ULL},
      {"Flat TM load=1.2", 2, 254233ULL},
      {"Flat TM load=1.2", 4, 225513ULL},
      {"Flat TM load=1.2", 8, 183320ULL},
      {"Semantic load=1.2", 2, 194449ULL},
      {"Semantic load=1.2", 4, 68169ULL},
      {"Semantic load=1.2", 8, 35289ULL},
      {"Chopped load=1.2", 2, 194149ULL},
      {"Chopped load=1.2", 4, 67690ULL},
      {"Chopped load=1.2", 8, 34273ULL},
  };
  check_goldens("srv", series, kSrvGolden, std::size(kSrvGolden), {2, 4, 8});
}

}  // namespace
