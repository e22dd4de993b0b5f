// Figure 4 — high-contention SPECjbb2000 (paper Section 6.3).
//
// Every thread serves TPC-C-style requests against a SINGLE warehouse.
// Series (paper): "Java" — the original fine-grained synchronized version,
// limited by the shared-warehouse locks; "Atomos Baseline" — each of the
// five operations as one coarse transaction, worst (counter + collection
// internals conflicts); "Atomos Open" — open-nested counters recover much
// of the loss; "Atomos Transactional" — + TransactionalMap/SortedMap around
// historyTable / orderTable / newOrderTable, the best transactional result.
#include <stdexcept>
#include <string>

#include "bench/testmap_common.h"
#include "harness/driver.h"
#include "jbb/engine.h"

namespace {

harness::Series jbb_series(const std::string& name, jbb::Flavor flavor, int total_ops) {
  const sim::Mode mode = flavor == jbb::Flavor::kJava ? sim::Mode::kLock : sim::Mode::kTcc;
  return harness::Series{
      name, mode,
      [name, flavor, mode, total_ops](int cpus, std::uint64_t salt, harness::RunResult& out) {
        jbb::JbbConfig jc;
        jc.flavor = flavor;
        jc.districts = 10;
        jc.items = 2000;  // TPC-C-like catalogue: stock collisions are rare
        jc.customers_per_district = 60;
        jc.think_cycles = 1200;
        sim::Engine eng(bench::make_cfg(mode, cpus));
        atomos::Runtime rt(eng);
        jbb::Engine engine(jc);
        const int per_cpu = total_ops / cpus;
        std::vector<jbb::OpCounts> counts(static_cast<std::size_t>(cpus));
        for (int c = 0; c < cpus; ++c) {
          eng.spawn([&, c, salt] {
            std::uint64_t rng = 4242 + salt + static_cast<std::uint64_t>(c) * 6151;
            for (int i = 0; i < per_cpu; ++i) {
              const int d = static_cast<int>((rng >> 40) % 10);
              engine.run_mixed_op(d, rng, counts[static_cast<std::size_t>(c)]);
            }
          });
        }
        eng.run();
        std::string why;
        if (!engine.check_consistency(&why)) {  // poisons the point: the sweep exits 1
          throw std::runtime_error("jbb consistency failure [" + name +
                                   " cpus=" + std::to_string(cpus) + "]: " + why);
        }
        bench::collect_stats(eng, out);
      }};
}

}  // namespace

int main(int argc, char** argv) {
  // The high-contention Atomos Open 32-CPU point is pathologically slow by
  // design (billions of simulated cycles of violations) — give fig4 a much
  // larger default per-point timeout than the other figures.
  const harness::Cli cli =
      harness::Cli::parse(argc, argv, "fig4_specjbb", /*default_timeout_sec=*/1800.0);
  // 3200 requests against the single warehouse — a step toward the paper's
  // op counts now that the driver shards points across host threads.
  const int total_ops = cli.ops > 0 ? static_cast<int>(cli.ops) : 3200;
  std::vector<harness::Series> series;
  series.push_back(jbb_series("Java", jbb::Flavor::kJava, total_ops));
  series.push_back(jbb_series("Atomos Baseline", jbb::Flavor::kAtomosBaseline, total_ops));
  series.push_back(jbb_series("Atomos Open", jbb::Flavor::kAtomosOpen, total_ops));
  series.push_back(
      jbb_series("Atomos Transactional", jbb::Flavor::kAtomosTransactional, total_ops));

  return harness::run_figure_main(
      "Figure 4: SPECjbb2000, high-contention single-warehouse configuration", series,
      bench::paper_cpu_counts(), "fig4_specjbb.csv", cli);
}
