// Figure 2 — TestSortedMap (paper Section 6.2).
//
// TestMap variant where lookups become subMap range scans that take the
// median key of a small range.  Expected shape (paper): "Java TreeMap"
// scales linearly; "Atomos TreeMap" fails to scale because red-black
// rebalancing rotations create memory conflicts between semantically
// independent operations; "Atomos TransactionalSortedMap" — the same
// TreeMap wrapped — regains scalability via range/endpoint/key locks.
#include "bench/testmap_common.h"
#include "harness/driver.h"

int main(int argc, char** argv) {
  using namespace bench;
  const harness::Cli cli = harness::Cli::parse(argc, argv, "fig2_testsortedmap");
  TestMapParams p = testsortedmap_params();
  if (cli.ops > 0) p.total_ops = static_cast<int>(cli.ops);

  auto make_tree = [] { return std::make_unique<jstd::TreeMap<long, long>>(); };
  auto make_wrapped = [make_tree]() -> std::unique_ptr<jstd::SortedMap<long, long>> {
    return std::make_unique<tcc::TransactionalSortedMap<long, long>>(make_tree());
  };

  std::vector<harness::Series> series;
  series.push_back(java_series("Java TreeMap", p, make_tree, TestSortedMapOp{}));
  series.push_back(atomos_series("Atomos TreeMap", p, make_tree, TestSortedMapOp{}));
  series.push_back(
      atomos_series("Atomos TransactionalSortedMap", p, make_wrapped, TestSortedMapOp{}));

  return harness::run_figure_main(
      "Figure 2: TestSortedMap (80% subMap median / 10% put / 10% remove, long transactions)",
      series, paper_cpu_counts(), "fig2_testsortedmap.csv", cli);
}
