// Unit and integration tests for the line reader directory (tm/reader_dir.h).
//
// The direct tests pin the per-(line, CPU) reader bits.  The integration
// tests drive the full runtime and check the lifecycle rules the
// directory's correctness rests on:
//   * a committed write flags CPUs that hold the line in a live read set
//     (flag-on-commit), however many transactions on that CPU read it;
//   * a read that closed-frame rollback truncates leaves the read set, so
//     later commits flag nothing for it: the committer finds no reader and
//     clears the CPU's bit (unflag-on-truncation); and
//   * an open-nested child's commit never flags its own CPU's stack, so a
//     parent that read a line its child then wrote survives (the open-nesting
//     exemption the transactional collection classes rely on).
#include "tm/reader_dir.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "tm/runtime.h"
#include "tm/shared.h"

namespace atomos {
namespace {

sim::Config tcc_cfg(int cpus) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = sim::Mode::kTcc;
  return c;
}

// Lines handed to ReaderDir must sit in the virtual heap.
constexpr sim::LineAddr kLine0 = sim::kVaBase >> sim::Config::kLineShift;

TEST(ReaderDirTest, AddIsIdempotentAndClearDropsTheBit) {
  ReaderDir dir;
  EXPECT_FALSE(dir.is_reader(kLine0, 1));

  dir.add(kLine0, 1);
  dir.add(kLine0, 3);
  dir.add(kLine0, 3);  // same line in two stacked read sets on CPU 3
  EXPECT_TRUE(dir.is_reader(kLine0, 1));
  EXPECT_TRUE(dir.is_reader(kLine0, 3));
  EXPECT_FALSE(dir.is_reader(kLine0, 0));

  dir.clear(kLine0, 3);  // one clear drops the bit, however many adds
  EXPECT_FALSE(dir.is_reader(kLine0, 3));
  EXPECT_TRUE(dir.is_reader(kLine0, 1));
  dir.clear(kLine0, 1);
  EXPECT_FALSE(dir.is_reader(kLine0, 1));
  dir.clear(kLine0 + 9, 1);  // a line never added: nothing to clear
  EXPECT_FALSE(dir.is_reader(kLine0 + 9, 1));
}

TEST(ReaderDirTest, LinesAreIndependent) {
  ReaderDir dir;
  dir.add(kLine0, 0);
  dir.add(kLine0 + 5, 1);
  EXPECT_TRUE(dir.is_reader(kLine0, 0));
  EXPECT_TRUE(dir.is_reader(kLine0 + 5, 1));
  EXPECT_FALSE(dir.is_reader(kLine0 + 1, 0));  // untouched line in between
  EXPECT_FALSE(dir.is_reader(kLine0 + 1, 1));
  dir.clear(kLine0, 0);
  EXPECT_TRUE(dir.is_reader(kLine0 + 5, 1));
}

TEST(ReaderDirTest, MultiWordMasksAbove64Cpus) {
  // CPUs 64..127 live in the second mask word: the walk the commit path
  // makes must find them there, skip the committer and survive a clear of
  // the CPU it is visiting.
  ReaderDir dir;
  dir.add(kLine0, 5);
  dir.add(kLine0, 64);
  dir.add(kLine0, 127);
  int seen = 0;
  dir.for_each_reader_except(kLine0, 127, [&](int cpu) {
    seen += cpu;
    dir.clear(kLine0, cpu);
  });
  EXPECT_EQ(seen, 5 + 64);
  EXPECT_FALSE(dir.is_reader(kLine0, 5));
  EXPECT_FALSE(dir.is_reader(kLine0, 64));
  EXPECT_TRUE(dir.is_reader(kLine0, 127));
}

TEST(ReaderDirTest, EveryArenaKeepsItsOwnMasks) {
  // The directory is one array per arena: a line in each arena, all at the
  // same offset inside their arenas, must keep a bit of its own.
  ReaderDir dir;
  sim::LineAddr lines[sim::kArenaCount];
  for (std::size_t a = 0; a < sim::kArenaCount; ++a) {
    lines[a] = (sim::arena_base(static_cast<sim::MemClass>(a)) >> sim::Config::kLineShift) + 3;
    dir.add(lines[a], static_cast<int>(a));
  }
  for (std::size_t a = 0; a < sim::kArenaCount; ++a) {
    for (int cpu = 0; cpu < static_cast<int>(sim::kArenaCount); ++cpu)
      EXPECT_EQ(dir.is_reader(lines[a], cpu), cpu == static_cast<int>(a)) << "arena " << a;
  }
  for (std::size_t a = 0; a < sim::kArenaCount; ++a) {
    dir.clear(lines[a], static_cast<int>(a));
    EXPECT_FALSE(dir.is_reader(lines[a], static_cast<int>(a)));
    for (std::size_t b = a + 1; b < sim::kArenaCount; ++b)
      EXPECT_TRUE(dir.is_reader(lines[b], static_cast<int>(b))) << "arena " << b;
  }
  EXPECT_THROW(dir.add(kLine0 - 1, 0), std::out_of_range);  // below the heap
}

TEST(ReaderDirIntegration, CommitFlagsLiveReader) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0);
  int attempts = 0;
  int final_read = -1;
  eng.spawn([&] {
    atomically([&] {
      ++attempts;
      final_read = x.get();
      if (Runtime::current().work(5000)) return;
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(500);
    atomically([&] { x.set(7); });
  });
  eng.run();
  EXPECT_EQ(attempts, 2);  // directory routed the commit to the reader
  EXPECT_EQ(final_read, 7);
  EXPECT_GE(eng.stats().cpu(0).violations, 1u);
}

TEST(ReaderDirIntegration, FrameRollbackUnflagsTruncatedRead) {
  // CPU 0 reads x only inside attempt 0 of a closed-nested frame.  The frame
  // is violated and retried; the rollback truncates the prev<0 read-log
  // entry for x, which drops x from the read set.  CPU 0's reader bit for x
  // stays, so CPU 1's second commit of x visits CPU 0, finds no transaction
  // holding x, flags nothing and clears the bit: the frame runs exactly
  // twice, not three times.
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0);
  Shared<int> y(0);
  int frame_runs = 0;
  int outer_runs = 0;
  eng.spawn([&] {
    atomically([&] {
      ++outer_runs;
      atomically([&] {
        ++frame_runs;
        if (frame_runs == 1) {
          (void)x.get();
        } else {
          (void)y.get();
        }
        if (Runtime::current().work(4000)) return;
      });
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(500);
    atomically([&] { x.set(1); });  // violates CPU 0's frame
    (void)Runtime::current().work(2000);
    atomically([&] { x.set(2); });  // lands mid-retry: must NOT violate
  });
  eng.run();
  EXPECT_EQ(outer_runs, 1);  // partial rollback: only the frame retried
  EXPECT_EQ(frame_runs, 2);
  EXPECT_EQ(x.unsafe_peek(), 2);
}

TEST(ReaderDirIntegration, OpenNestedChildDoesNotFlagOwnParent) {
  // The parent reads x, then an open-nested child writes and commits x.
  // The child's commit broadcast must skip its own CPU's stack: the parent
  // keeps running and commits on the first attempt, and its later read of x
  // sees the child's committed value.
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  Shared<int> x(0);
  int attempts = 0;
  int before = -1;
  int after = -1;
  eng.spawn([&] {
    atomically([&] {
      ++attempts;
      before = x.get();
      open_atomically([&] { x.set(3); });
      if (Runtime::current().work(50)) return;
      after = x.get();
    });
  });
  eng.run();
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(before, 0);
  EXPECT_EQ(after, 3);  // open child's commit is visible to the parent
  EXPECT_EQ(eng.stats().cpu(0).violations, 0u);
}

TEST(ReaderDirIntegration, ParentStillFlaggedAfterItsOpenChildReadTheLine) {
  // The parent and its open child both read x, and the child commits, which
  // ends the child's read.  The parent's read must still draw CPU 1's
  // commit of x.
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0);
  int attempts = 0;
  int final_read = -1;
  eng.spawn([&] {
    atomically([&] {
      ++attempts;
      final_read = x.get();
      open_atomically([&] { (void)x.get(); });
      if (Runtime::current().work(5000)) return;
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(1000);
    atomically([&] { x.set(7); });
  });
  eng.run();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(final_read, 7);
  EXPECT_EQ(eng.stats().cpu(0).violations, 1u);
}

TEST(ReaderDirIntegration, OpenNestingTowerDeeperThan255IsFlagged) {
  // 257 stacked transactions on CPU 0 all read x: one reader bit covers
  // them, with no per-CPU count to saturate.  CPU 1's commit of x dooms the
  // tower, which retries from the bottom and then sees the new value.
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0);
  int attempts = 0;
  int innermost_read = -1;
  std::function<void(int)> deep = [&](int depth) {
    const int v = x.get();
    if (depth > 0) {
      open_atomically([&] { deep(depth - 1); });
      return;
    }
    innermost_read = v;
    if (Runtime::current().work(100000)) return;
  };
  eng.spawn([&] {
    atomically([&] {
      ++attempts;
      deep(256);
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(60000);  // the tower is built by now
    atomically([&] { x.set(7); });
  });
  eng.run();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(innermost_read, 7);
  EXPECT_EQ(eng.stats().cpu(0).violations, 1u);
}

TEST(ReaderDirIntegration, OpenNestedChildCommitFlagsOtherCpuReader) {
  // Same shape, but the reader is on another CPU: the child's commit must
  // flag it even though the child's parent is still speculative.
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0);
  int attempts = 0;
  int final_read = -1;
  eng.spawn([&] {
    atomically([&] {
      ++attempts;
      final_read = x.get();
      if (Runtime::current().work(6000)) return;
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(500);
    atomically([&] {
      open_atomically([&] { x.set(9); });
      if (Runtime::current().work(3000)) return;  // parent still running after the child
    });
  });
  eng.run();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(final_read, 9);
}

}  // namespace
}  // namespace atomos
