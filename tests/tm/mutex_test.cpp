// Tests for the lock-mode mutex: mutual exclusion in virtual time, FIFO
// handoff, contention accounting, and error paths.
#include "tm/mutex.h"

#include <gtest/gtest.h>

#include "tm/runtime.h"
#include "tm/shared.h"

namespace atomos {
namespace {

sim::Config lock_cfg(int cpus) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = sim::Mode::kLock;
  return c;
}

TEST(MutexTest, ProvidesMutualExclusion) {
  constexpr int kCpus = 8;
  constexpr int kIncs = 50;
  sim::Engine eng(lock_cfg(kCpus));
  Runtime rt(eng);
  Mutex mu;
  Shared<long> counter(0, sim::kDataCell);
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&] {
      for (int i = 0; i < kIncs; ++i) {
        LockGuard g(mu);
        counter.set(counter.get() + 1);
      }
    });
  }
  eng.run();
  EXPECT_EQ(counter.unsafe_peek(), static_cast<long>(kCpus) * kIncs);
}

TEST(MutexTest, CriticalSectionsSerializeInVirtualTime) {
  sim::Engine eng(lock_cfg(2));
  Runtime rt(eng);
  Mutex mu;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sections;  // [enter, exit)
  for (int c = 0; c < 2; ++c) {
    eng.spawn([&] {
      sim::Engine& e = sim::Engine::get();
      for (int i = 0; i < 5; ++i) {
        mu.lock();
        const std::uint64_t enter = e.now();
        e.tick(100);
        sections.emplace_back(enter, e.now());
        mu.unlock();
        e.tick(37);
      }
    });
  }
  eng.run();
  std::sort(sections.begin(), sections.end());
  for (std::size_t i = 1; i < sections.size(); ++i) {
    EXPECT_LE(sections[i - 1].second, sections[i].first) << "critical sections overlapped";
  }
}

TEST(MutexTest, ContendedLockAccumulatesSpinOrParkTime) {
  sim::Engine eng(lock_cfg(4));
  Runtime rt(eng);
  Mutex mu;
  for (int c = 0; c < 4; ++c) {
    eng.spawn([&] {
      for (int i = 0; i < 10; ++i) {
        LockGuard g(mu);
        sim::Engine::get().tick(500);  // long hold forces contention
      }
    });
  }
  eng.run();
  // With 40 x 500-cycle serialized holds, elapsed must be at least 20000.
  EXPECT_GE(eng.elapsed_cycles(), 20000u);
}

TEST(MutexTest, RecursiveLockThrows) {
  sim::Engine eng(lock_cfg(1));
  Runtime rt(eng);
  Mutex mu;
  bool threw = false;
  eng.spawn([&] {
    mu.lock();
    try {
      mu.lock();
    } catch (const std::logic_error&) {
      threw = true;
    }
    mu.unlock();
  });
  eng.run();
  EXPECT_TRUE(threw);
}

TEST(MutexTest, UnlockByNonOwnerThrows) {
  sim::Engine eng(lock_cfg(2));
  Runtime rt(eng);
  Mutex mu;
  bool threw = false;
  eng.spawn([&] {
    mu.lock();
    sim::Engine::get().tick(1000);
    mu.unlock();
  });
  eng.spawn([&] {
    sim::Engine::get().tick(100);
    try {
      mu.unlock();
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  eng.run();
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace atomos
