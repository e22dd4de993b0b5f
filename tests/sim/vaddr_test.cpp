// Arena-segregated virtual addressing (sim/vaddr.h): disjoint ranges,
// line-private classes, data packing, determinism, overflow, and foreign
// allocations.
#include "sim/vaddr.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/engine.h"

namespace {

using sim::MemClass;

constexpr std::uintptr_t kLine = sim::Config::kLineBytes;
constexpr MemClass kAll[] = {MemClass::kMeta, MemClass::kCounter, MemClass::kLock,
                             MemClass::kData};

std::uintptr_t line_of(std::uintptr_t a) { return a / kLine; }

TEST(VaddrTest, ArenaRangesAreDisjointAndOrdered) {
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LT(sim::arena_base(kAll[i]), sim::arena_limit(kAll[i]));
    for (std::size_t j = i + 1; j < 4; ++j) {
      // Later arenas begin at or after the earlier arena's limit.
      EXPECT_GE(sim::arena_base(kAll[j]), sim::arena_limit(kAll[i]));
    }
  }
  EXPECT_EQ(sim::arena_base(MemClass::kMeta), sim::kVaBase);
}

TEST(VaddrTest, AllocationsLandInTheirArena) {
  sim::va_reset();
  for (MemClass mc : kAll) {
    for (int i = 0; i < 2; ++i) {
      const std::uintptr_t p = sim::va_alloc(8, mc);
      EXPECT_GE(p, sim::arena_base(mc));
      EXPECT_LT(p, sim::arena_limit(mc));
    }
  }
  sim::va_reset();
}

TEST(VaddrTest, LineIsolatedCellsAreNeverCoResident) {
  sim::va_reset();
  // Interleave allocations of several sizes in every class; no line of a
  // cell in a line-private class (all but kData) may host any other
  // allocation.
  struct Alloc {
    std::uintptr_t addr;
    std::size_t bytes;
    bool isolated;
  };
  std::vector<Alloc> allocs;
  const std::size_t sizes[] = {1, 8, 8, 64, 8, 128};
  for (int round = 0; round < 50; ++round) {
    for (MemClass mc : kAll) {
      const std::size_t bytes = sizes[static_cast<std::size_t>(round) % 6];
      allocs.push_back(Alloc{sim::va_alloc(bytes, mc), bytes, mc != MemClass::kData});
    }
  }
  auto lines = [](const Alloc& al) {
    std::set<std::uintptr_t> out;
    for (std::uintptr_t l = line_of(al.addr); l <= line_of(al.addr + al.bytes - 1); ++l)
      out.insert(l);
    return out;
  };
  for (std::size_t i = 0; i < allocs.size(); ++i) {
    if (!allocs[i].isolated) continue;
    const auto mine = lines(allocs[i]);
    for (std::size_t j = 0; j < allocs.size(); ++j) {
      if (j == i) continue;
      for (std::uintptr_t l : lines(allocs[j])) {
        EXPECT_EQ(mine.count(l), 0u)
            << "isolated alloc " << i << " shares line " << l << " with alloc " << j;
      }
    }
  }
  sim::va_reset();
}

TEST(VaddrTest, PackedCellsStillShareLinesByAdjacency) {
  sim::va_reset();
  // Eight words to a 64-byte line, in allocation order — the false-sharing
  // model bulk data relies on must survive the arena split.
  std::uintptr_t first = sim::va_alloc(8, sim::kDataCell);
  for (int i = 1; i < 8; ++i) {
    const std::uintptr_t p = sim::va_alloc(8, sim::kDataCell);
    EXPECT_EQ(p, first + static_cast<std::uintptr_t>(i) * 8);
    EXPECT_EQ(line_of(p), line_of(first));
  }
  EXPECT_NE(line_of(sim::va_alloc(8, sim::kDataCell)), line_of(first));
  sim::va_reset();
}

TEST(VaddrTest, DeterministicAcrossResetsAndThreads) {
  auto layout = [] {
    std::vector<std::uintptr_t> out;
    sim::va_reset();
    for (int i = 0; i < 64; ++i) {
      for (MemClass mc : kAll) out.push_back(sim::va_alloc(mc == MemClass::kData ? 16 : 8, mc));
    }
    sim::va_reset();
    return out;
  };
  const auto on_main = layout();
  EXPECT_EQ(on_main, layout());  // reset rewinds every cursor
  // The cursors are thread_local: a fresh host thread running the same
  // construction sequence must produce the identical layout (this is what
  // makes --jobs N sweeps byte-identical to serial runs).
  std::vector<std::uintptr_t> on_thread;
  std::thread t([&] { on_thread = layout(); });
  t.join();
  EXPECT_EQ(on_main, on_thread);
}

TEST(VaddrTest, ArenaOverflowThrowsDeterministically) {
  sim::va_reset();
  const std::uintptr_t span =
      sim::arena_limit(MemClass::kMeta) - sim::arena_base(MemClass::kMeta);
  const std::uintptr_t nlines = span / kLine;
  for (std::uintptr_t i = 0; i < nlines; ++i) sim::va_alloc(8, sim::kMetaCell);
  EXPECT_THROW(sim::va_alloc(8, sim::kMetaCell), std::length_error);
  // Other arenas are unaffected by the exhausted one.
  EXPECT_NO_THROW(sim::va_alloc(8, sim::kCounterCell));
  sim::va_reset();
}

// A foreign allocation draws from cursors no live Engine owns while an
// Engine is live elsewhere, so its address can alias that simulation's: it
// throws, in every build.
TEST(VaddrTest, ForeignAllocationThrows) {
  sim::va_reset();
  std::atomic<int> stage{0};
  std::thread holder([&] {
    sim::Engine eng(sim::Config{});  // owns *its* thread's cursors
    stage.store(1);
    while (stage.load() < 2) std::this_thread::yield();
  });
  while (stage.load() < 1) std::this_thread::yield();
  EXPECT_THROW(sim::va_alloc(8, sim::kDataCell), std::logic_error);
  stage.store(2);
  holder.join();
  EXPECT_NO_THROW(sim::va_alloc(8, sim::kDataCell));  // no Engine live now
  sim::va_reset();
}

TEST(VaddrTest, OwnThreadAndEngineLessAllocationsDoNotThrow) {
  // No Engine alive anywhere: bare-cell construction is legitimate setup.
  sim::va_reset();
  EXPECT_NO_THROW(sim::va_alloc(8, sim::kDataCell));
  {
    // Cells built on the Engine's own thread, after the Engine.
    sim::Engine eng(sim::Config{});
    EXPECT_NO_THROW(sim::va_alloc(8, sim::kDataCell));
    EXPECT_NO_THROW(sim::va_alloc(8, sim::kMetaCell));
  }
  EXPECT_NO_THROW(sim::va_alloc(8, sim::kDataCell));
  sim::va_reset();
}

}  // namespace
