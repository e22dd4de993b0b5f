// Differential test of the engine's runq (sim::RunTree) against a
// std::set<(clock, id)> reference: random inserts, removes and re-keys at
// widths that exercise the power-of-two padding, with clock ties forced by
// drawing clocks from a narrow band most of the time.
#include "sim/run_tree.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace sim {
namespace {

TEST(RunTreeTest, KeyPacksClockAboveIdAndEmptyIsAboveEveryKey) {
  EXPECT_EQ(RunTree::kIdBits, 7);
  EXPECT_EQ(RunTree::kClockLimit, (std::uint64_t{1} << 57) - 1);
  const std::uint64_t k = RunTree::key(12345, 67);
  EXPECT_EQ(RunTree::clock_of(k), 12345u);
  EXPECT_EQ(RunTree::id_of(k), 67);
  // Clock first, then id: a tie on clock goes to the lower id.
  EXPECT_LT(RunTree::key(5, 127), RunTree::key(6, 0));
  EXPECT_LT(RunTree::key(5, 3), RunTree::key(5, 4));
  EXPECT_LT(RunTree::key(RunTree::kClockLimit - 1, Config::kMaxCpus - 1), RunTree::kEmpty);
  EXPECT_EQ(RunTree::clock_of(RunTree::kEmpty), RunTree::kClockLimit);
}

TEST(RunTreeTest, MatchesOrderedSetReference) {
  for (const int n : {1, 2, 3, 5, 8, 100, 128}) {
    SCOPED_TRACE("cpus=" + std::to_string(n));
    std::mt19937_64 rng(0x5eed + static_cast<std::uint64_t>(n));
    RunTree tree(n);
    std::set<std::pair<std::uint64_t, int>> ref;
    std::vector<std::uint64_t> clock_of(static_cast<std::size_t>(n));
    std::vector<bool> in(static_cast<std::size_t>(n), false);
    std::vector<int> ids;
    std::vector<int> want_ids;
    for (int step = 0; step < 20000; ++step) {
      const int id = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
      const std::size_t i = static_cast<std::size_t>(id);
      if (in[i] && rng() % 3 == 0) {  // remove
        ref.erase({clock_of[i], id});
        tree.set(id, RunTree::kEmpty);
        in[i] = false;
      } else {  // insert, or re-key a queued CPU
        if (in[i]) ref.erase({clock_of[i], id});
        const std::uint64_t r = rng();
        clock_of[i] = r % 4 != 0 ? r % 8  // narrow band: many ties
                                  : r % RunTree::kClockLimit;
        ref.insert({clock_of[i], id});
        tree.set(id, RunTree::key(clock_of[i], id));
        in[i] = true;
      }
      if (ref.empty()) {
        ASSERT_EQ(tree.min(), RunTree::kEmpty) << "step " << step;
      } else {
        ASSERT_EQ(RunTree::clock_of(tree.min()), ref.begin()->first) << "step " << step;
        ASSERT_EQ(RunTree::id_of(tree.min()), ref.begin()->second) << "step " << step;
      }
      ASSERT_EQ(tree.queued(id), in[i]) << "step " << step;
      if (step % 97 == 0) {
        want_ids.clear();
        for (int c = 0; c < n; ++c)
          if (in[static_cast<std::size_t>(c)]) want_ids.push_back(c);
        tree.queued_ids(ids);
        ASSERT_EQ(ids, want_ids) << "step " << step;
      }
    }
    tree.clear();
    EXPECT_EQ(tree.min(), RunTree::kEmpty);
    tree.queued_ids(ids);
    EXPECT_TRUE(ids.empty());
  }
}

}  // namespace
}  // namespace sim
