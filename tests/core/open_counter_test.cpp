// Open-nested counters and UID generation: reduced isolation removes parent
// conflicts; compensation (when requested) keeps committed totals exact.
#include "core/open_counter.h"

#include <gtest/gtest.h>

#include <set>

namespace tcc {
namespace {

sim::Config tcc_cfg(int cpus) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = sim::Mode::kTcc;
  return c;
}

TEST(OpenCounterTest, ConcurrentIncrementsDoNotViolateParents) {
  // The SPECjbb District.nextOrder pattern: long transactions bump a shared
  // counter; open nesting keeps the parents conflict-free.
  constexpr int kCpus = 8;
  sim::Engine eng(tcc_cfg(kCpus));
  atomos::Runtime rt(eng);
  OpenCounter counter(0, "counter");
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&] {
      for (int i = 0; i < 10; ++i) {
        atomos::atomically([&] {
          counter.add(1);
          if (atomos::work(500)) return;  // long transaction around the counter bump
        });
      }
    });
  }
  eng.run();
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::violations), 0u);
  EXPECT_EQ(counter.unsafe_peek(), 80);
}

TEST(OpenCounterTest, PlainSharedCounterWouldViolate) {
  // Contrast: the same workload on a raw Shared<long> inside the parent
  // serializes through violations — demonstrating what open nesting buys.
  constexpr int kCpus = 8;
  sim::Engine eng(tcc_cfg(kCpus));
  atomos::Runtime rt(eng);
  atomos::Shared<long> counter(0, sim::kDataCell);
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&] {
      for (int i = 0; i < 10; ++i) {
        atomos::atomically([&] {
          counter.set(counter.get() + 1);
          if (atomos::work(500)) return;
        });
      }
    });
  }
  eng.run();
  EXPECT_GT(eng.stats().total(&sim::CpuStats::violations), 0u);
  EXPECT_EQ(counter.unsafe_peek(), 80);  // still atomic, just slower
}

TEST(OpenCounterTest, OpenCounterCountsAbortedAttempts) {
  // No compensation: an aborted parent leaves its bump behind.
  sim::Engine eng(tcc_cfg(1));
  atomos::Runtime rt(eng);
  OpenCounter counter;
  eng.spawn([&] {
    try {
      atomos::atomically([&] {
        counter.add(1);
        throw std::runtime_error("abort");
      });
    } catch (const std::runtime_error&) {
    }
  });
  eng.run();
  EXPECT_EQ(counter.unsafe_peek(), 1);  // the bump survived the abort
}

TEST(OpenCounterTest, CompensatedCounterIsExact) {
  sim::Engine eng(tcc_cfg(1));
  atomos::Runtime rt(eng);
  CompensatedCounter counter;
  eng.spawn([&] {
    try {
      atomos::atomically([&] {
        counter.add(5);
        throw std::runtime_error("abort");
      });
    } catch (const std::runtime_error&) {
    }
    atomos::atomically([&] { counter.add(3); });
  });
  eng.run();
  EXPECT_EQ(counter.unsafe_peek(), 3);  // abort compensated, commit kept
}

TEST(OpenCounterTest, CompensatedCounterExactUnderContention) {
  constexpr int kCpus = 6;
  sim::Engine eng(tcc_cfg(kCpus));
  atomos::Runtime rt(eng);
  CompensatedCounter counter;
  atomos::Shared<long> hot(0, sim::kDataCell);  // forces violations in the parents
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&] {
      for (int i = 0; i < 10; ++i) {
        atomos::atomically([&] {
          counter.add(1);
          hot.set(hot.get() + 1);  // contended: parents will retry
          if (atomos::work(300)) return;
        });
      }
    });
  }
  eng.run();
  EXPECT_GT(eng.stats().total(&sim::CpuStats::violations), 0u);
  EXPECT_EQ(counter.unsafe_peek(), 60);  // exact despite retries
}

TEST(OpenCounterTest, UidGeneratorUniqueAndMonotonicWithHoles) {
  constexpr int kCpus = 6;
  sim::Engine eng(tcc_cfg(kCpus));
  atomos::Runtime rt(eng);
  UidGenerator uids(1);
  atomos::Shared<long> hot(0, sim::kDataCell);
  std::vector<std::vector<long>> per_cpu(kCpus);
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&, c] {
      for (int i = 0; i < 10; ++i) {
        atomos::atomically([&] {
          const long id = uids.next();
          hot.set(hot.get() + 1);
          if (atomos::work(200)) return;
          // Only record on commit (the handler runs iff we commit).  It
          // observes and publishes no open-nested state: nothing to undo.
          atomos::Runtime::current().on_top_commit(
              &per_cpu, [&per_cpu, c, id] { per_cpu[static_cast<std::size_t>(c)].push_back(id); },
              atomos::no_compensation);
        });
      }
    });
  }
  eng.run();
  std::set<long> all;
  for (const auto& v : per_cpu) {
    // Monotonic per CPU (each next() is later in its thread's order).
    for (std::size_t i = 1; i < v.size(); ++i) EXPECT_LT(v[i - 1], v[i]);
    for (long id : v) EXPECT_TRUE(all.insert(id).second) << "duplicate id " << id;
  }
  EXPECT_EQ(all.size(), 60u);
  // Holes allowed: the next id is at least 61, more if parents retried.
  EXPECT_GE(uids.unsafe_peek_next(), 61);
}

}  // namespace
}  // namespace tcc
