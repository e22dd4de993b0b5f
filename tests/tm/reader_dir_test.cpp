// Unit and integration tests for the line reader directory (tm/reader_dir.h).
//
// The direct tests pin the refcounted mask bookkeeping.  The integration
// tests drive the full runtime and check the three lifecycle rules the
// directory's correctness rests on:
//   * a committed write flags CPUs that hold the line in a live read set
//     (flag-on-commit),
//   * closed-frame rollback that truncates a prev<0 read-log entry removes
//     the line, so later commits no longer target the CPU
//     (unflag-on-truncation), and
//   * an open-nested child's commit never flags its own CPU's stack, so a
//     parent that read a line its child then wrote survives (the open-nesting
//     exemption the transactional collection classes rely on).
#include "tm/reader_dir.h"

#include <gtest/gtest.h>

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

TEST(ReaderDirTest, AddRemoveMaskAndCounts) {
  ReaderDir dir(4);
  EXPECT_FALSE(dir.is_reader(kLine0, 1));

  dir.add(kLine0, 1);
  dir.add(kLine0, 3);
  dir.add(kLine0, 3);  // same line in two stacked read sets on CPU 3
  EXPECT_TRUE(dir.is_reader(kLine0, 1));
  EXPECT_TRUE(dir.is_reader(kLine0, 3));
  EXPECT_FALSE(dir.is_reader(kLine0, 0));
  EXPECT_EQ(dir.count(kLine0, 1), 1u);
  EXPECT_EQ(dir.count(kLine0, 3), 2u);

  dir.remove(kLine0, 3);
  EXPECT_TRUE(dir.is_reader(kLine0, 3));  // one ref left
  dir.remove(kLine0, 3);
  EXPECT_FALSE(dir.is_reader(kLine0, 3));  // last ref clears the bit
  EXPECT_TRUE(dir.is_reader(kLine0, 1));
  dir.remove(kLine0, 1);
  EXPECT_FALSE(dir.is_reader(kLine0, 1));
  EXPECT_EQ(dir.count(kLine0, 1), 0u);
}

TEST(ReaderDirTest, LinesAreIndependent) {
  ReaderDir dir(2);
  dir.add(kLine0, 0);
  dir.add(kLine0 + 5, 1);
  EXPECT_TRUE(dir.is_reader(kLine0, 0));
  EXPECT_TRUE(dir.is_reader(kLine0 + 5, 1));
  EXPECT_FALSE(dir.is_reader(kLine0 + 1, 0));  // untouched line in between
  EXPECT_FALSE(dir.is_reader(kLine0 + 1, 1));
  dir.remove(kLine0, 0);
  EXPECT_TRUE(dir.is_reader(kLine0 + 5, 1));
}

TEST(ReaderDirTest, MultiWordMasksAbove64Cpus) {
  // CPUs 64..127 live in the second mask word; the word-granular view the
  // commit path walks (mask_words) must place and clear their bits there.
  ReaderDir dir(128);
  EXPECT_EQ(dir.mask_stride(), 2u);
  dir.add(kLine0, 5);
  dir.add(kLine0, 64);
  dir.add(kLine0, 127);
  const std::uint64_t* w = dir.mask_words(kLine0);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w[0], std::uint64_t{1} << 5);
  EXPECT_EQ(w[1], (std::uint64_t{1} << 0) | (std::uint64_t{1} << 63));
  dir.remove(kLine0, 64);
  EXPECT_EQ(dir.mask_words(kLine0)[1], std::uint64_t{1} << 63);
  EXPECT_TRUE(dir.is_reader(kLine0, 127));
  EXPECT_FALSE(dir.is_reader(kLine0, 64));
  EXPECT_TRUE(dir.is_reader(kLine0, 5));
}

TEST(ReaderDirTest, SmallSimStaysSingleWord) {
  // The stride is sized from the sim's actual CPU count, so a paper-scale
  // run does not pay kMaxCpus-width masks per line.
  EXPECT_EQ(ReaderDir(8).mask_stride(), 1u);
  EXPECT_EQ(ReaderDir(64).mask_stride(), 1u);
  EXPECT_EQ(ReaderDir(65).mask_stride(), 2u);
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
  // entry for x, which must also drop CPU 0 from x's reader list: CPU 1's
  // second commit of x then has no reader to flag, so the frame runs
  // exactly twice, not three times.
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
