// Engine SchedulerHook regression tests.
//
// The hook must be a pure observation point when it defers: a hook that
// returns kUseDefault at every decision yields BIT-IDENTICAL simulated
// cycles to running with no hook at all, pinned here against the fig1
// golden value.  A hook that scripts its own policy produces a different
// but fully deterministic interleaving, and a recorded decision sequence
// replays to the same run.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "bench/testmap_common.h"

namespace {

/// Defers every decision to the engine's own min-clock policy.
class PassThroughHook final : public sim::SchedulerHook {
 public:
  int pick(const std::vector<int>& runnable) override {
    ++decisions_;
    EXPECT_FALSE(runnable.empty());
    return kUseDefault;
  }
  std::uint64_t decisions() const { return decisions_; }

 private:
  std::uint64_t decisions_ = 0;
};

/// Always runs the highest-id runnable cpu — the opposite of min-clock —
/// and records every choice for replay.
class ScriptedHook final : public sim::SchedulerHook {
 public:
  int pick(const std::vector<int>& runnable) override {
    const int c = runnable.back();
    trace_.push_back(c);
    return c;
  }
  const std::vector<int>& trace() const { return trace_; }

 private:
  std::vector<int> trace_;
};

/// Replays a recorded decision sequence verbatim, then defers.
class ReplayHook final : public sim::SchedulerHook {
 public:
  explicit ReplayHook(std::vector<int> trace) : trace_(std::move(trace)) {}
  int pick(const std::vector<int>& runnable) override {
    (void)runnable;
    if (next_ < trace_.size()) return trace_[next_++];
    return kUseDefault;
  }

 private:
  std::vector<int> trace_;
  std::size_t next_ = 0;
};

/// The fig1 "Atomos TransactionalMap" small configuration, inlined so a
/// hook can be installed before the run (the bench Series helpers build
/// their Engine internally).
struct Fig1Small {
  explicit Fig1Small(int cpus)
      : eng(bench::make_cfg(sim::Mode::kTcc, cpus)),
        rt(eng),
        map(std::make_unique<tcc::TransactionalMap<long, long>>(
            std::make_unique<jstd::HashMap<long, long>>(static_cast<std::size_t>(p.key_space) *
                                                        2))) {
    for (long k = 0; k < p.prepopulate; ++k) map->put(k * 2 % p.key_space, k);
    const int per_cpu = p.total_ops / cpus;
    for (int c = 0; c < cpus; ++c) {
      eng.spawn([this, c, per_cpu] {
        std::uint64_t s = p.seed + static_cast<std::uint64_t>(c) * 7919;
        for (int i = 0; i < per_cpu; ++i) {
          std::uint64_t body_seed = s;
          atomos::atomically([&] {
            std::uint64_t bs = body_seed;
            if (atomos::work(p.think_cycles / 2)) return;
            bench::testmap_op(*map, p.key_space, bs);
            if (atomos::work(p.think_cycles / 2)) return;
          });
          bench::rnd(s);
          bench::rnd(s);
        }
      });
    }
  }

  const bench::TestMapParams p{.total_ops = 640, .think_cycles = 1000, .seed = 12345};
  sim::Engine eng;
  atomos::Runtime rt;
  std::unique_ptr<tcc::TransactionalMap<long, long>> map;
};

std::uint64_t run_fig1_small(int cpus, sim::SchedulerHook* hook) {
  Fig1Small w(cpus);
  if (hook != nullptr) w.eng.set_scheduler_hook(hook);
  w.eng.run();
  return w.eng.elapsed_cycles();
}

TEST(SchedulerHookTest, PassThroughMatchesFig1Golden) {
  // Golden pin from tests/core/golden_cycles_test.cpp: any drift here means
  // consulting the hook perturbed the engine's own schedule.
  PassThroughHook hook;
  EXPECT_EQ(run_fig1_small(8, &hook), 85448ULL);
  EXPECT_GT(hook.decisions(), 0u);
}

TEST(SchedulerHookTest, PassThroughMatchesNoHookEverywhere) {
  for (int cpus : {1, 2, 4}) {
    const std::uint64_t bare = run_fig1_small(cpus, nullptr);
    PassThroughHook hook;
    EXPECT_EQ(run_fig1_small(cpus, &hook), bare) << "cpus=" << cpus;
  }
}

TEST(SchedulerHookTest, ScriptedHookIsDeterministicAndReplayable) {
  ScriptedHook a;
  const std::uint64_t cycles_a = run_fig1_small(2, &a);
  ScriptedHook b;
  const std::uint64_t cycles_b = run_fig1_small(2, &b);
  EXPECT_EQ(cycles_a, cycles_b);
  EXPECT_EQ(a.trace(), b.trace());
  ASSERT_FALSE(a.trace().empty());

  // The recorded decisions replay to the exact same run.
  ReplayHook replay(a.trace());
  EXPECT_EQ(run_fig1_small(2, &replay), cycles_a);

  // And the max-clock policy genuinely diverges from the default schedule.
  EXPECT_NE(cycles_a, run_fig1_small(2, nullptr));
}

/// Checks the runnable-set contract at every decision — ids in range and
/// strictly ascending — then defers to the engine policy.
class ValidatingHook final : public sim::SchedulerHook {
 public:
  explicit ValidatingHook(int cpus) : cpus_(cpus) {}
  int pick(const std::vector<int>& runnable) override {
    ++decisions_;
    EXPECT_FALSE(runnable.empty());
    for (std::size_t i = 0; i < runnable.size(); ++i) {
      EXPECT_GE(runnable[i], 0);
      EXPECT_LT(runnable[i], cpus_);
      if (i > 0) {
        EXPECT_LT(runnable[i - 1], runnable[i]) << "ids not ascending";
      }
    }
    return kUseDefault;
  }
  std::uint64_t decisions() const { return decisions_; }

 private:
  int cpus_;
  std::uint64_t decisions_ = 0;
};

TEST(SchedulerHookTest, RunnableSetStaysAscendingAndPassThroughAt128Cpus) {
  // The widened CPU axis goes through the same hook contract: the runnable
  // enumeration is ascending and complete, and deferring every decision
  // still reproduces the hookless schedule bit-for-bit.
  const std::uint64_t bare = run_fig1_small(128, nullptr);
  ValidatingHook hook(128);
  EXPECT_EQ(run_fig1_small(128, &hook), bare);
  EXPECT_GT(hook.decisions(), 0u);
}

TEST(SchedulerHookTest, ScriptedHookReplaysAt128Cpus) {
  ScriptedHook a;
  const std::uint64_t cycles_a = run_fig1_small(128, &a);
  ASSERT_FALSE(a.trace().empty());
  ReplayHook replay(a.trace());
  EXPECT_EQ(run_fig1_small(128, &replay), cycles_a);
}

/// Defers to the engine policy until its `fail_at`-th decision, which it
/// fails by throwing or by picking a CPU that does not exist.
class FailingHook final : public sim::SchedulerHook {
 public:
  enum class How { kThrow, kBadPick };
  FailingHook(How how, int fail_at) : how_(how), fail_at_(fail_at) {}
  int pick(const std::vector<int>& runnable) override {
    if (++decisions_ < fail_at_) return kUseDefault;
    if (how_ == How::kThrow) throw std::runtime_error("hook failed");
    return runnable.back() + 1000;
  }

 private:
  How how_;
  int fail_at_;
  int decisions_ = 0;
};

TEST(SchedulerHookTest, FailingHookLeavesNoThreadStateBehind) {
  // However pick() fails, run() must unwind its fibers and give the thread
  // back: no dangling current engine, no engine stuck "during run()", and
  // the next simulation on this thread reproduces its golden cycles.
  for (const FailingHook::How how : {FailingHook::How::kThrow, FailingHook::How::kBadPick}) {
    SCOPED_TRACE(how == FailingHook::How::kThrow ? "throw" : "bad pick");
    {
      Fig1Small w(8);
      FailingHook hook(how, 5);
      w.eng.set_scheduler_hook(&hook);
      if (how == FailingHook::How::kThrow) {
        EXPECT_THROW(w.eng.run(), std::runtime_error);
      } else {
        EXPECT_THROW(w.eng.run(), std::logic_error);
      }
      EXPECT_EQ(sim::Engine::current_or_null(), nullptr);
      EXPECT_NO_THROW(w.eng.set_scheduler_hook(nullptr));
    }
    EXPECT_EQ(run_fig1_small(8, nullptr), 85448ULL);
    EXPECT_EQ(sim::Engine::current_or_null(), nullptr);
  }
}

TEST(SchedulerHookTest, HookChangeDuringRunIsRejected) {
  sim::Engine eng(bench::make_cfg(sim::Mode::kTcc, 1));
  atomos::Runtime rt(eng);
  PassThroughHook hook;
  eng.spawn([&] {
    EXPECT_THROW(eng.set_scheduler_hook(&hook), std::logic_error);
  });
  eng.run();
}

}  // namespace
