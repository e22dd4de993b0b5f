// Figure 3 — TestCompound (paper Section 6.2).
//
// Each iteration composes TWO map operations with computation between them
// (plus computation before and after).  The Java version must hold a coarse
// lock across the whole compound region to stay atomic — so it barely
// scales.  Atomos runs the entire loop body as one transaction: with a raw
// HashMap it conflicts on internals (little better than the coarse lock);
// with TransactionalMap it is BOTH composable and scalable — the paper's
// "composability without sacrificing concurrency" result.
#include "bench/testmap_common.h"
#include "harness/driver.h"

int main(int argc, char** argv) {
  using namespace bench;
  const harness::Cli cli = harness::Cli::parse(argc, argv, "fig3_testcompound");
  TestMapParams p;
  if (cli.ops > 0) p.total_ops = cli.ops;

  auto make_hash = [&p] {
    return std::make_unique<jstd::HashMap<long, long>>(
        static_cast<std::size_t>(p.key_space) * 2);
  };
  auto make_wrapped = [make_hash]() -> std::unique_ptr<jstd::Map<long, long>> {
    return std::make_unique<tcc::TransactionalMap<long, long>>(make_hash());
  };

  std::vector<harness::Series> series;
  const TestCompoundOp op{p.think_cycles};
  series.push_back(java_series("Java HashMap (coarse lock)", p, make_hash, op));
  series.push_back(atomos_series("Atomos HashMap", p, make_hash, op));
  series.push_back(atomos_series("Atomos TransactionalMap", p, make_wrapped, op));

  return harness::run_figure_main("Figure 3: TestCompound (two composed ops + computation)",
                                  series, paper_cpu_counts(), "fig3_testcompound.csv", cli);
}
