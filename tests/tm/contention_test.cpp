// Contention-manager unit tests (tm/contention.h), centred on the
// KarmaBackoff lockstep bug: the original formula `16 << max(0, 6-attempt)`
// ignored `cpu`, so equally-aborted CPUs computed identical backoffs,
// restarted at the same simulated cycle, and re-collided on every retry.
#include "tm/contention.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "tm/runtime.h"
#include "tm/shared.h"

namespace atomos {
namespace {

/// The pre-fix KarmaBackoff, kept verbatim as the regression baseline.
class LockstepKarma final : public ContentionManager {
 public:
  std::uint64_t backoff_cycles(int, int attempt) override {
    const int shift = std::max(0, 6 - attempt);
    return 16ULL << shift;
  }
};

sim::Config tcc_cfg(int cpus) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = sim::Mode::kTcc;
  return c;
}

/// Symmetric hot-cell workload: every CPU increments the same cell with the
/// same think time, so all losers of a commit race abort at the same cycle
/// with the same attempt count — the adversarial input for a cpu-blind
/// backoff policy.  Returns total top-level violations.
std::uint64_t run_symmetric(std::unique_ptr<ContentionManager> cm, int cpus, int iters) {
  sim::Engine eng(tcc_cfg(cpus));
  Runtime rt(eng, std::move(cm));
  Shared<long> hot(0, sim::kDataCell);
  for (int c = 0; c < cpus; ++c) {
    eng.spawn([&] {
      for (int i = 0; i < iters; ++i) {
        atomically([&] {
          hot.set(hot.get() + 1);
          if (work(10)) return;
        });
      }
    });
  }
  eng.run();
  EXPECT_EQ(hot.unsafe_peek(), static_cast<long>(cpus) * iters);
  return eng.stats().total(&sim::CpuStats::violations);
}

TEST(ContentionTest, OldKarmaFormulaWasCpuBlind) {
  // The pre-fix policy hands every CPU the identical backoff for a given
  // attempt — the lockstep precondition.
  LockstepKarma old_policy;
  for (int attempt = 0; attempt < 10; ++attempt) {
    const std::uint64_t b0 = old_policy.backoff_cycles(0, attempt);
    for (int cpu = 1; cpu < 8; ++cpu)
      EXPECT_EQ(old_policy.backoff_cycles(cpu, attempt), b0);
  }
  // The fixed policy desynchronizes: across 8 CPUs at the same attempt the
  // backoffs are not all equal.
  KarmaBackoff fixed;
  std::set<std::uint64_t> distinct;
  for (int cpu = 0; cpu < 8; ++cpu) distinct.insert(fixed.backoff_cycles(cpu, 0));
  EXPECT_GT(distinct.size(), 1u);
}

TEST(ContentionTest, FixedKarmaKeepsTheKarmaShape) {
  // Losers still back off less with each defeat: the jittered window is
  // [w, 2w] with w = 16 << max(0, 6-attempt), so it shrinks as attempts
  // grow and never collapses to zero.
  KarmaBackoff fixed;
  for (int cpu = 0; cpu < 4; ++cpu) {
    for (int attempt = 0; attempt < 12; ++attempt) {
      const std::uint64_t w = 16ULL << std::max(0, 6 - attempt);
      const std::uint64_t b = fixed.backoff_cycles(cpu, attempt);
      EXPECT_GE(b, w);
      EXPECT_LE(b, 2 * w);
    }
  }
}

TEST(ContentionTest, KarmaLockstepCollides) {
  // The livelock demonstration: on the symmetric hot-cell workload the
  // cpu-blind policy re-collides on retry after retry (committer-wins
  // guarantees eventual progress, so the pathology shows up as violation
  // count, not a hang), while the jittered fix spreads the retries out.
  const std::uint64_t lockstep =
      run_symmetric(std::make_unique<LockstepKarma>(), 4, 50);
  const std::uint64_t jittered =
      run_symmetric(std::make_unique<KarmaBackoff>(), 4, 50);
  EXPECT_GT(lockstep, 2 * jittered)
      << "lockstep=" << lockstep << " jittered=" << jittered;
}

}  // namespace
}  // namespace atomos
