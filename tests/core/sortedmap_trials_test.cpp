// Regression test for a crash in fig2's `--trials` sweeps.
//
// fig2's "Atomos TransactionalSortedMap" series at 64 CPUs, run with the
// driver's salt for trial 3, used to die with SIGSEGV.  A read-only
// transaction ran its top commit handler on commit_txn's token-free cleanup
// path.  That handler calls TreeMap::last_key(), which reads each right link
// twice: once to test it, once to follow it.  The second read yielded across
// a concurrent commit that unlinked the child, came back null, and was
// dereferenced before the doomed transaction's next violation poll.  The
// point must now run to completion.
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "bench/testmap_common.h"

namespace {

// The driver's seed salt for `--trials` trial t is t * 0x9E3779B97F4A7C15.
constexpr std::uint64_t kTrial3Salt = 3 * 0x9E3779B97F4A7C15ULL;

TEST(SortedMapTrials, Fig2TransactionalSortedMapTrial3At64Cpus) {
  constexpr int kCpus = 64;
  const bench::TestMapParams p = bench::testsortedmap_params();
  auto make_wrapped = []() -> std::unique_ptr<jstd::SortedMap<long, long>> {
    return std::make_unique<tcc::TransactionalSortedMap<long, long>>(
        std::make_unique<jstd::TreeMap<long, long>>());
  };
  const harness::Series s = bench::atomos_series("Atomos TransactionalSortedMap", p,
                                                 make_wrapped, bench::TestSortedMapOp{});
  harness::RunResult r;
  s.run(kCpus, kTrial3Salt, r);
  // Every operation is one top-level transaction, and each commits once.
  EXPECT_EQ(r.commits, static_cast<std::uint64_t>(kCpus * (p.total_ops / kCpus)));
  EXPECT_GT(r.violations, 0u);  // the contended schedule that used to crash
}

}  // namespace
