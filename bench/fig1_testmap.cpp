// Figure 1 — TestMap (paper Section 6.2).
//
// Multi-threaded 80/10/10 access to a single Map inside long transactions.
// Expected shape (paper): "Java HashMap" scales nearly linearly (the lock is
// held briefly relative to the surrounding computation); "Atomos HashMap"
// plateaus because semantically-independent operations conflict on the
// HashMap's internal size field; "Atomos TransactionalMap" — the same
// HashMap wrapped in the transactional collection class — regains the Java
// scalability while keeping whole-body atomicity.
#include "bench/testmap_common.h"
#include "harness/driver.h"

int main(int argc, char** argv) {
  using namespace bench;
  const harness::Cli cli = harness::Cli::parse(argc, argv, "fig1_testmap");
  TestMapParams p;
  if (cli.ops > 0) p.total_ops = cli.ops;

  auto make_hash = [&p] {
    return std::make_unique<jstd::HashMap<long, long>>(
        static_cast<std::size_t>(p.key_space) * 2);
  };
  auto make_wrapped = [&p, make_hash]() -> std::unique_ptr<jstd::Map<long, long>> {
    return std::make_unique<tcc::TransactionalMap<long, long>>(make_hash());
  };

  std::vector<harness::Series> series;
  series.push_back(java_series("Java HashMap", p, make_hash));
  series.push_back(atomos_series("Atomos HashMap", p, make_hash));
  series.push_back(atomos_series("Atomos TransactionalMap", p, make_wrapped));

  return harness::run_figure_main(
      "Figure 1: TestMap (80% get / 10% put / 10% remove, long transactions)", series,
      paper_cpu_counts(), "fig1_testmap.csv", cli);
}
