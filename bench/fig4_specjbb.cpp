// Figure 4 — high-contention SPECjbb2000 (paper Section 6.3).
//
// Every thread serves TPC-C-style requests against a SINGLE warehouse.
// Series (paper): "Java" — the original fine-grained synchronized version,
// limited by the shared-warehouse locks; "Atomos Baseline" — each of the
// five operations as one coarse transaction, worst (counter + collection
// internals conflicts); "Atomos Open" — open-nested counters recover much
// of the loss; "Atomos Transactional" — + TransactionalMap/SortedMap around
// historyTable / orderTable / newOrderTable, the best transactional result.
#include "bench/testmap_common.h"
#include "harness/driver.h"
#include "jbb/engine.h"

int main(int argc, char** argv) {
  // The high-contention Atomos Open 32-CPU point is pathologically slow by
  // design (billions of simulated cycles of violations) — give fig4 a much
  // larger default per-point timeout than the other figures.
  const harness::Cli cli =
      harness::Cli::parse(argc, argv, "fig4_specjbb", /*default_timeout_sec=*/1800.0);
  // 3200 requests against the single warehouse — a step toward the paper's
  // op counts now that the driver shards points across host threads.
  const int total_ops = cli.ops > 0 ? cli.ops : 3200;
  using jbb::Flavor;
  const std::vector<harness::Series> series = {
      jbb::series("Java", jbb::fig4_config(Flavor::kJava), total_ops),
      jbb::series("Atomos Baseline", jbb::fig4_config(Flavor::kAtomosBaseline), total_ops),
      jbb::series("Atomos Open", jbb::fig4_config(Flavor::kAtomosOpen), total_ops),
      jbb::series("Atomos Transactional", jbb::fig4_config(Flavor::kAtomosTransactional),
                  total_ops),
  };

  return harness::run_figure_main(
      "Figure 4: SPECjbb2000, high-contention single-warehouse configuration", series,
      bench::paper_cpu_counts(), "fig4_specjbb.csv", cli);
}
