// Unit tests for the CMP engine: clock ordering, determinism, block/unblock,
// deadlock detection, and tick/advance semantics.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

namespace sim {
namespace {

Config cfg(int cpus) {
  Config c;
  c.num_cpus = cpus;
  return c;
}

TEST(EngineTest, SingleWorkerRunsAndAccumulatesTime) {
  Engine eng(cfg(1));
  eng.spawn([&] {
    EXPECT_TRUE(Engine::in_worker());
    EXPECT_EQ(Engine::get().cpu_id(), 0);
    Engine::get().tick(100);
    EXPECT_EQ(Engine::get().now(), 100u);
  });
  eng.run();
  EXPECT_EQ(eng.elapsed_cycles(), 100u);
  EXPECT_FALSE(Engine::in_worker());
}

TEST(EngineTest, EventsAreGloballyTimeOrdered) {
  // Two CPUs record (time, id) at each step; the merged trace must be sorted
  // by time (ties broken by lower CPU id, per the deterministic scheduler).
  Engine eng(cfg(2));
  std::vector<std::pair<std::uint64_t, int>> trace;
  for (int id = 0; id < 2; ++id) {
    eng.spawn([&, id] {
      Engine& e = Engine::get();
      for (int i = 0; i < 20; ++i) {
        trace.emplace_back(e.now(), id);
        e.tick(id == 0 ? 3 : 5);  // different rates force interleaving
      }
    });
  }
  eng.run();
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].first, trace[i].first)
        << "event " << i << " out of order";
  }
}

TEST(EngineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng(cfg(4));
    std::vector<int> order;
    for (int id = 0; id < 4; ++id) {
      eng.spawn([&, id] {
        for (int i = 0; i < 10; ++i) {
          order.push_back(id);
          Engine::get().tick(static_cast<std::uint64_t>(1 + ((id * 7 + i) % 5)));
        }
      });
    }
    eng.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EngineTest, BlockUnblockTransfersTime) {
  Engine eng(cfg(2));
  std::uint64_t woke_at = 0;
  eng.spawn([&] {
    Engine::get().block();  // sleeps until CPU1 wakes us
    woke_at = Engine::get().now();
  });
  eng.spawn([&] {
    Engine& e = Engine::get();
    e.tick(500);
    e.unblock(0, e.now());
  });
  eng.run();
  EXPECT_EQ(woke_at, 500u);
}

TEST(EngineTest, AllBlockedIsDeadlock) {
  Engine eng(cfg(2));
  eng.spawn([] { Engine::get().block(); });
  eng.spawn([] { Engine::get().block(); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(EngineTest, ElapsedIsMaxOverCpus) {
  Engine eng(cfg(3));
  eng.spawn([] { Engine::get().tick(10); });
  eng.spawn([] { Engine::get().tick(999); });
  eng.spawn([] { Engine::get().tick(50); });
  eng.run();
  EXPECT_EQ(eng.elapsed_cycles(), 999u);
}

TEST(EngineTest, SpawnMoreThanCpusThrows) {
  Engine eng(cfg(1));
  eng.spawn([] {});
  EXPECT_THROW(eng.spawn([] {}), std::logic_error);
}

TEST(EngineTest, AdvanceToMovesClockForwardOnly) {
  Engine eng(cfg(1));
  eng.spawn([] {
    Engine& e = Engine::get();
    e.tick(100);
    e.advance_to(50);  // must not move backwards
    EXPECT_EQ(e.now(), 100u);
    e.advance_to(200);
    EXPECT_EQ(e.now(), 200u);
  });
  eng.run();
}

TEST(EngineTest, SoleSpinningFiberHonorsHostDeadlineAtConfiguredQuantum) {
  // A single runnable fiber has no "second" clock, so its run limit would be
  // unbounded; with a host deadline armed Config::kDeadlineQuantum caps the
  // budget, forcing the spin back to a scheduling point where the deadline
  // is polled every (kDeadlinePollMask + 1) decisions: once per 2^25 ticks
  // here.  The spin below is bounded only as a hang backstop, about 60 polls
  // long: the deadline must fire first.
  Engine eng(cfg(1));
  eng.spawn([] {
    for (std::uint64_t i = 0; i < 2'000'000'000; ++i) Engine::get().tick(1);
  });
  Engine::set_host_deadline(std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(25));
  EXPECT_THROW(eng.run(), SimTimeout);
  Engine::clear_host_deadline();
}

TEST(EngineTest, DeadlineQuantumLeavesSimulatedCyclesUntouched) {
  // Capping run budgets only inserts extra yields; simulated clocks must be
  // bit-identical whether or not a (far-future) deadline armed the cap.
  // CPU 1 outlives CPU 0 by about 298k cycles, more than four quanta that it
  // runs alone, so the armed cap really hands it shortened budgets.
  static_assert(300'000 - 1'500 > 4 * Config::kDeadlineQuantum);
  auto total = [](bool armed) {
    Engine eng(cfg(2));
    for (const int ticks : {500, 100'000})
      eng.spawn([ticks] {
        for (int i = 0; i < ticks; ++i) Engine::get().tick(3);
      });
    if (armed)
      Engine::set_host_deadline(std::chrono::steady_clock::now() +
                                std::chrono::hours(1));
    eng.run();
    Engine::clear_host_deadline();
    return eng.elapsed_cycles();
  };
  const std::uint64_t bare = total(false);
  EXPECT_EQ(total(true), bare);
}

// The runq packs `clock << 7 | id` into 64 bits, so clocks must stay below
// RunTree::kClockLimit (2^57 - 1).  A clock past it must fail the run,
// naming the CPU, and never wrap into a small key that schedules it first.
void expect_clock_overflow(Engine& eng, int cpu) {
  try {
    eng.run();
    ADD_FAILURE() << "run() accepted a clock past the runq key";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("CPU " + std::to_string(cpu)), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(Engine::current_or_null(), nullptr);
}

TEST(EngineTest, ClockPastRunqKeyFailsLoudly) {
  constexpr std::uint64_t kPast = std::uint64_t{1} << 57;  // key would wrap to 0
  {  // A sole CPU: the run limit an empty runq hands out still stops it.
    Engine eng(cfg(1));
    eng.spawn([] { Engine::get().tick(kPast); });
    expect_clock_overflow(eng, 0);
  }
  {  // The runaway CPU yields while another is queued.
    Engine eng(cfg(2));
    bool later_ran = false;
    eng.spawn([] { Engine::get().tick(kPast); });
    eng.spawn([&] {
      Engine::get().tick(10);
      later_ran = true;  // would run only after a wrapped key: never
    });
    expect_clock_overflow(eng, 0);
    EXPECT_FALSE(later_ran);
  }
  {  // A wake-up past the limit, then the waker blocks.
    Engine eng(cfg(3));
    eng.spawn([] { Engine::get().block(); });
    eng.spawn([] { Engine::get().block(); });
    eng.spawn([] {
      Engine& e = Engine::get();
      e.tick(10);
      e.unblock(1, kPast);
      e.unblock(0, 20);
      e.block();
    });
    expect_clock_overflow(eng, 1);
  }
  {  // The largest clock that packs still schedules normally.
    Engine eng(cfg(2));
    eng.spawn([] { Engine::get().tick(RunTree::kClockLimit - 1); });
    eng.spawn([] { Engine::get().tick(5); });
    eng.run();
    EXPECT_EQ(eng.elapsed_cycles(), RunTree::kClockLimit - 1);
  }
}

}  // namespace
}  // namespace sim
