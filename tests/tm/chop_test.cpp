// Transaction chopping (tm/chop.h): piece execution, forward-dependency
// counting, the compensation of a chop whose piece throws, and the degraded
// in-transaction / lock-mode paths.
#include "tm/chop.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "tm/runtime.h"
#include "tm/shared.h"

namespace atomos {
namespace {

// A piece's compensation is part of the call's type, as a commit handler's
// abort side is: a two-argument piece does not compile, and neither does a
// null compensation.  It takes a callable or no_compensation.  Pieces run
// in declaration order, so no form takes a rank.
struct Body {
  void operator()() const {}
};
template <class... A>
constexpr bool kPiece = requires(Chop& c, A... a) { c.piece(a...); };

static_assert(!kPiece<const char*, Body>);
static_assert(!kPiece<int, const char*, Body>);
static_assert(!kPiece<const char*, Body, std::nullptr_t>);
static_assert(!kPiece<int, const char*, Body, std::nullptr_t>);
static_assert(kPiece<const char*, Body, Body>);
static_assert(kPiece<const char*, Body, NoCompensation>);
static_assert(!kPiece<int, const char*, Body, Body>);
static_assert(!kPiece<int, const char*, Body, NoCompensation>);

sim::Config cfg(int cpus, sim::Mode mode = sim::Mode::kTcc) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = mode;
  return c;
}

TEST(Chop, RunsPiecesInRankOrderAndCommitsEach) {
  sim::Engine eng(cfg(1));
  Runtime rt(eng);
  Shared<int> a(0, sim::kDataCell), b(0, sim::kDataCell);
  std::vector<int> order;
  eng.spawn([&] {
    chopped()
        .piece("first",
               [&] {
                 order.push_back(1);
                 a.set(a.get() + 1);
               },
               no_compensation)
        .piece("second",
               [&] {
                 order.push_back(2);
                 b.set(a.get() + 10);  // reads the first piece's commit
               },
               no_compensation)
        .run();
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(a.unsafe_peek(), 1);
  EXPECT_EQ(b.unsafe_peek(), 11);
  // Each piece committed as its own top-level transaction.
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::commits), 2u);
  EXPECT_EQ(rt.chop_stats().chops, 1u);
  EXPECT_EQ(rt.chop_stats().pieces, 2u);
  EXPECT_EQ(rt.chop_stats().dep_breaks, 0u);
}

// A foreign commit touching an earlier piece's footprint between pieces is
// a forward-dependency break.  It is counted and the chop completes; the
// final state reflects the interleaving.
TEST(Chop, RankedPolicyCountsForwardDependencyBreaks) {
  sim::Engine eng(cfg(2));
  Runtime rt(eng);
  Shared<long> x(0, sim::kDataCell);   // read by piece 0, written by the intruder
  Shared<long> y(-1, sim::kDataCell);  // written by piece 1
  eng.spawn([&] {
    chopped()
        .piece("read-x",
               [&] {
                 (void)x.get();
                 if (work(50)) return;
               },
               no_compensation)
        .piece("gap", [&] { if (work(3000)) return; }, no_compensation)  // intruder commits in here
        .piece("write-y", [&] { y.set(x.get()); }, no_compensation)
        .run();
  });
  eng.spawn([&] {
    (void)Runtime::current().work(500);
    atomically([&] { x.set(7); });  // lands between chop pieces
  });
  eng.run();
  EXPECT_EQ(rt.chop_stats().chops, 1u);
  EXPECT_GE(rt.chop_stats().dep_breaks, 1u);
  EXPECT_EQ(y.unsafe_peek(), 7);  // the chop read the intruder's commit
}

// A piece body throwing undoes the committed prefix, newest-first, before
// propagating: the chop is all-or-nothing at the semantic level.  Only the
// pieces with a callable compensation are compensated; the read-only
// "audit" piece between them passes no_compensation and registers nothing.
TEST(Chop, ThrowingPieceCompensatesCommittedPrefix) {
  sim::Engine eng(cfg(1));
  Runtime rt(eng);
  Shared<long> ledger(0, sim::kDataCell);  // "charge" adds 5; its compensation refunds it
  std::vector<std::string> events;
  bool threw = false;
  eng.spawn([&] {
    try {
      chopped()
          .piece("charge",
                 [&] {
                   ledger.set(ledger.get() + 5);
                   events.push_back("charge");
                 },
                 /*compensate=*/
                 [&] {
                   ledger.set(ledger.get() - 5);
                   events.push_back("refund");
                 })
          .piece("audit", [&] { (void)ledger.get(); }, no_compensation)
          .piece("reserve", [&] { events.push_back("reserve"); },
                 /*compensate=*/[&] { events.push_back("release"); })
          .piece("boom", [&] { throw std::runtime_error("piece failed"); }, no_compensation)
          .run();
    } catch (const std::runtime_error&) {
      threw = true;
    }
  });
  eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(events, (std::vector<std::string>{"charge", "reserve", "release", "refund"}));
  EXPECT_EQ(ledger.unsafe_peek(), 0);
  EXPECT_EQ(rt.chop_stats().chops, 0u);  // never completed
  EXPECT_EQ(rt.chop_stats().pieces, 3u);
  EXPECT_EQ(rt.chop_stats().compensations, 2u);  // charge and reserve, not audit
}

// Inside an enclosing transaction a chop's pieces run inline as part of it:
// nothing commits early, so an enclosing abort rolls everything back and
// compensations never run.
TEST(Chop, DegradesToFramesInsideEnclosingTransaction) {
  sim::Engine eng(cfg(1));
  Runtime rt(eng);
  Shared<long> v(0, sim::kDataCell);
  bool compensated = false;
  eng.spawn([&] {
    try {
      atomically([&] {
        chopped()
            .piece("inner", [&] { v.set(41); },
                   [&] { compensated = true; })
            .piece("inner2", [&] { v.set(v.get() + 1); }, no_compensation)
            .run();
        throw std::runtime_error("abort enclosing");
      });
    } catch (const std::runtime_error&) {
    }
  });
  eng.run();
  EXPECT_EQ(v.unsafe_peek(), 0);  // enclosing rollback covered the pieces
  EXPECT_FALSE(compensated);
  EXPECT_EQ(rt.chop_stats().pieces, 0u);  // no top-level piece commits
}

// Lock mode: plain calls, no transactions, still correct.
TEST(Chop, LockModeRunsPlainly) {
  sim::Engine eng(cfg(1, sim::Mode::kLock));
  Runtime rt(eng);
  Shared<long> v(0, sim::kDataCell);
  eng.spawn([&] {
    chopped()
        .piece("a", [&] { v.set(1); }, no_compensation)
        .piece("b", [&] { v.set(v.get() + 1); }, no_compensation)
        .run();
  });
  eng.run();
  EXPECT_EQ(v.unsafe_peek(), 2);
}

// The broadcast probe must not flag the chop's own CPU (its own pieces and
// compensations commit there), and an unrelated commit must not break it.
TEST(Chop, UnrelatedCommitsDoNotBreakTheChop) {
  sim::Engine eng(cfg(2));
  Runtime rt(eng);
  Shared<long> mine(0, sim::kDataCell);
  Shared<long> other(0, sim::kMetaCell);  // a line of its own, off the chop's
  eng.spawn([&] {
    chopped()
        .piece("p0", [&] { mine.set(mine.get() + 1); }, no_compensation)
        .piece("gap", [&] { if (work(2000)) return; }, no_compensation)
        .piece("p1", [&] { mine.set(mine.get() + 1); }, no_compensation)
        .run();
  });
  eng.spawn([&] {
    (void)Runtime::current().work(300);
    atomically([&] { other.set(9); });  // disjoint footprint
  });
  eng.run();
  EXPECT_EQ(rt.chop_stats().dep_breaks, 0u);
  EXPECT_EQ(mine.unsafe_peek(), 2);
}

}  // namespace
}  // namespace atomos
