// Unit tests for sim::LineTable: one dense array per virtual-address arena,
// each indexed by the line's offset inside its arena and grown on demand.
#include "sim/line_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace sim {
namespace {

constexpr LineAddr first_line(std::size_t arena) {
  return arena_base(static_cast<MemClass>(arena)) >> Config::kLineShift;
}
constexpr LineAddr last_line(std::size_t arena) {
  return (arena_limit(static_cast<MemClass>(arena)) >> Config::kLineShift) - 1;
}

TEST(LineTableTest, FirstAndLastLinesOfEveryArenaAreDistinctEntries) {
  // One byte per entry: the data arena's last line grows its array to the
  // arena's full span (64 Mi lines).
  LineTable<std::uint8_t> t;
  std::vector<LineAddr> lines;
  for (std::size_t a = 0; a < kArenaCount; ++a) {
    lines.push_back(first_line(a));
    lines.push_back(last_line(a));
  }
  for (std::size_t i = 0; i < lines.size(); ++i) t.at(lines[i]) = static_cast<std::uint8_t>(i + 1);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::uint8_t* e = t.find(lines[i]);
    ASSERT_NE(e, nullptr) << "line " << lines[i];
    EXPECT_EQ(*e, static_cast<std::uint8_t>(i + 1)) << "line " << lines[i];
  }
}

TEST(LineTableTest, FindPastAnArenasHighWaterLineIsNull) {
  LineTable<int> t;
  const LineAddr lock = first_line(static_cast<std::size_t>(MemClass::kLock));
  t.at(lock + 5) = 1;
  EXPECT_NE(t.find(lock + 5), nullptr);
  EXPECT_NE(t.find(lock), nullptr);  // below the high-water line: value-initialised
  EXPECT_EQ(*t.find(lock), 0);
  EXPECT_EQ(t.find(lock + 6), nullptr);
  // The other arenas have their own high-water lines.
  EXPECT_EQ(t.find(first_line(static_cast<std::size_t>(MemClass::kMeta))), nullptr);
  EXPECT_EQ(t.find(first_line(static_cast<std::size_t>(MemClass::kData))), nullptr);
  // Lines outside the heap have no entry.
  EXPECT_EQ(t.find(first_line(0) - 1), nullptr);
  EXPECT_EQ(t.find(kLineEnd), nullptr);
}

TEST(LineTableTest, GrowthKeepsEarlierEntries) {
  LineTable<int> t;
  const LineAddr data = first_line(static_cast<std::size_t>(MemClass::kData));
  t.at(data) = 7;
  t.at(data + 3) = 8;
  t.at(data + 100000) = 9;  // grows the data arena's array past its capacity
  EXPECT_EQ(*t.find(data), 7);
  EXPECT_EQ(*t.find(data + 3), 8);
  EXPECT_EQ(*t.find(data + 100000), 9);
  EXPECT_EQ(t.at(data + 3), 8);  // at() of a reached line finds, not resets
}

TEST(LineTableTest, AtOutsideTheHeapThrows) {
  LineTable<int> t;
  EXPECT_THROW(t.at(0), std::out_of_range);
  EXPECT_THROW(t.at(first_line(0) - 1), std::out_of_range);
  EXPECT_THROW(t.at(kLineEnd), std::out_of_range);
  EXPECT_EQ(t.find(first_line(0)), nullptr);  // nothing was made
}

}  // namespace
}  // namespace sim
