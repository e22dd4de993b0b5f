// Unit tests for the trace recorder and file reader: event layout, the
// drop-newest overflow policy, per-cell conflict labels, deterministic
// serialization (pointer args interned to dense first-appearance ids) and
// label round-tripping.
#include "trace/tracer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "trace/reader.h"

namespace trace {
namespace {

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(EventLayout, PackedTo24Bytes) {
  static_assert(sizeof(Event) == 24);
  EXPECT_EQ(pack_abort_aux(3, false), 3u);
  EXPECT_EQ(pack_abort_aux(3, true), 3u | kAuxSemanticBit);
  // Attempt counts saturate below the semantic bit.
  EXPECT_EQ(pack_abort_aux(1 << 20, false), 0x7FFFu);
  EXPECT_EQ(pack_abort_aux(1 << 20, true), 0x7FFFu | kAuxSemanticBit);
}

TEST(Tracer, RecordsEventsPerCpuInEmissionOrder) {
  Tracer t(2);
  t.on_txn_begin(0, 100, false, 7, 1);
  t.on_txn_begin(1, 90, false, 8, 2);
  t.on_txn_commit(0, 200, false, 5);
  ASSERT_EQ(t.count(0), 2u);
  ASSERT_EQ(t.count(1), 1u);
  const Event* e0 = t.events(0);
  EXPECT_EQ(e0[0].cycle, 100u);
  EXPECT_EQ(static_cast<Kind>(e0[0].kind), Kind::kTxnBegin);
  EXPECT_EQ(e0[0].arg, 7u);
  EXPECT_EQ(e0[0].seq, 0u);
  EXPECT_EQ(e0[1].cycle, 200u);
  EXPECT_EQ(static_cast<Kind>(e0[1].kind), Kind::kTxnCommit);
  EXPECT_EQ(e0[1].arg, 5u);
  EXPECT_EQ(e0[1].seq, 1u);
  EXPECT_EQ(t.events(1)[0].cpu, 1);
}

TEST(Tracer, OverflowDropsNewestButSeqStillAdvances) {
  Tracer t(1, /*capacity_per_cpu=*/2);
  t.on_txn_begin(0, 10, false, 1, 1);
  t.on_txn_commit(0, 20, false, 0);
  t.on_txn_begin(0, 30, false, 2, 1);  // dropped
  t.on_txn_commit(0, 40, false, 0);    // dropped
  EXPECT_EQ(t.count(0), 2u);
  EXPECT_EQ(t.dropped(0), 2u);
  // The retained events are the OLDEST two; the hole is visible as a seq
  // gap to anyone who appends later... which overflow forbids, so the
  // dropped counter is the authoritative signal.
  EXPECT_EQ(t.events(0)[1].cycle, 20u);
}

// Conflict labels are recorded per cell, not per line: a line reports every
// distinctly named cell resident on it.  A last-writer-wins per-line map
// once mislabelled the fig4 culprit line "Warehouse.nextHistory" when the
// hot cell was historyTable's table pointer (see EXPERIMENTS.md).
constexpr std::uint64_t kBase = 0x200000;  // arbitrary line-aligned address
constexpr std::uint64_t kLine = kBase >> kLineShift;

const std::string* label_at(const Tracer& t, std::uint64_t line) {
  auto it = t.labels().find(line);
  return it == t.labels().end() ? nullptr : &it->second;
}

TEST(Tracer, SingleCellKeepsItsExactName) {
  Tracer t(1);
  t.label_cell(kBase, 8, "District.nextOrder");
  ASSERT_NE(label_at(t, kLine), nullptr);
  EXPECT_EQ(*label_at(t, kLine), "District.nextOrder");
  EXPECT_EQ(label_at(t, kLine + 1), nullptr);
}

TEST(Tracer, CoResidentCellsJoinInConstructionOrder) {
  // Three labelled cells on one 64-byte line — the fig4 accident in
  // miniature.  Every name appears, in construction order.
  Tracer t(1);
  t.label_cell(kBase + 0, 8, "historyTable.table");
  t.label_cell(kBase + 8, 8, "Warehouse.ytd");
  t.label_cell(kBase + 16, 8, "Warehouse.nextHistory");
  EXPECT_EQ(*label_at(t, kLine), "historyTable.table+Warehouse.ytd+Warehouse.nextHistory");
}

TEST(Tracer, DuplicateNamesAreDeduplicated) {
  // Eight packed node cells sharing one label and one line must not yield
  // "TreeMap.node+TreeMap.node+...".
  Tracer t(1);
  for (std::uint64_t i = 0; i < 8; ++i) t.label_cell(kBase + 8 * i, 8, "TreeMap.node");
  t.label_cell(kBase + 32, 8, "orderTable.size");
  EXPECT_EQ(*label_at(t, kLine), "TreeMap.node+orderTable.size");
}

TEST(Tracer, LateLabelExtendsTheJoin) {
  Tracer t(1);
  t.label_cell(kBase, 8, "a");
  t.label_cell(kBase + 8, 8, "b");
  EXPECT_EQ(*label_at(t, kLine), "a+b");
  t.label_cell(kBase + 16, 8, "c");
  EXPECT_EQ(*label_at(t, kLine), "a+b+c");
}

TEST(Tracer, MultiLineRangeCoversEveryLine) {
  Tracer t(1);
  t.label_cell(kBase + 56, 16, "straddler");  // crosses a line boundary
  EXPECT_EQ(*label_at(t, kLine), "straddler");
  EXPECT_EQ(*label_at(t, kLine + 1), "straddler");
  EXPECT_EQ(label_at(t, kLine + 2), nullptr);
}

TEST(TraceFileRoundtrip, PreservesEventsLabelsAndTableNames) {
  const std::string path = tmp_path("roundtrip.trace");
  int a = 0, b = 0;  // two distinct host addresses to intern
  {
    Tracer t(2);
    t.name_table(&a, "mapA.key2lockers");
    // &b deliberately left unnamed: the reader must fall back to table#N.
    t.label_cell(0x4000 << kLineShift, 8, "HashMap.size");
    t.on_lock_acquire(0, 50, &b);   // first appearance: table id 0
    t.on_lock_acquire(0, 60, &a);   // second appearance: table id 1
    t.on_violation_flag(1, 70, 0x4000, 0);
    t.on_sem_violation(1, 80, &a, 0);
    t.write(path);
  }
  const TraceFile tf = read_trace_file(path);
  EXPECT_EQ(tf.num_cpus, 2);
  ASSERT_EQ(tf.events.size(), 2u);
  ASSERT_EQ(tf.events[0].size(), 2u);
  ASSERT_EQ(tf.events[1].size(), 2u);
  // Pointer args were interned in (cpu, seq) order: &b first, then &a.
  EXPECT_EQ(tf.events[0][0].arg, 0u);
  EXPECT_EQ(tf.events[0][1].arg, 1u);
  EXPECT_EQ(tf.events[1][1].arg, 1u);
  ASSERT_EQ(tf.table_names.size(), 2u);
  EXPECT_EQ(tf.table_names[1], "mapA.key2lockers");
  EXPECT_EQ(table_of(tf, 0), "table#0");  // unnamed fallback
  EXPECT_EQ(label_of(tf, 0x4000), "HashMap.size");
  EXPECT_EQ(tf.dropped[0], 0u);
  std::remove(path.c_str());
}

TEST(TraceFileRoundtrip, SerializationIsDeterministic) {
  // Two tracers fed identical event streams through different host objects
  // (different pointer values) must serialize byte-identically.
  auto feed = [](Tracer& t, const void* table) {
    t.on_txn_begin(0, 10, false, 1, 1);
    t.on_lock_acquire(0, 20, table);
    t.on_txn_commit(0, 30, false, 2);
  };
  const std::string p1 = tmp_path("det1.trace");
  const std::string p2 = tmp_path("det2.trace");
  long x = 0, y = 0;
  {
    Tracer t(1);
    t.name_table(&x, "tbl");
    feed(t, &x);
    t.write(p1);
  }
  {
    Tracer t(1);
    t.name_table(&y, "tbl");
    feed(t, &y);
    t.write(p2);
  }
  auto slurp = [](const std::string& p) {
    std::string out;
    std::FILE* f = std::fopen(p.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
    return out;
  };
  EXPECT_EQ(slurp(p1), slurp(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(TraceFileRoundtrip, DroppedCountsSurviveSerialization) {
  const std::string path = tmp_path("dropped.trace");
  {
    Tracer t(1, 1);
    t.on_txn_begin(0, 10, false, 1, 1);
    t.on_txn_commit(0, 20, false, 0);  // dropped
    t.write(path);
  }
  const TraceFile tf = read_trace_file(path);
  ASSERT_EQ(tf.events[0].size(), 1u);
  EXPECT_EQ(tf.dropped[0], 1u);
  std::remove(path.c_str());
}

TEST(Reader, RejectsGarbageFiles) {
  const std::string path = tmp_path("garbage.trace");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace", f);
    std::fclose(f);
  }
  EXPECT_THROW(read_trace_file(path), std::runtime_error);
  EXPECT_THROW(read_trace_file(tmp_path("missing.trace")), std::runtime_error);
  std::remove(path.c_str());
}

TEST(RequestApi, SetTakeClearRoundtrip) {
  Request req;
  EXPECT_FALSE(take_request(req));
  set_request("/tmp/x.trace", 128);
  ASSERT_TRUE(take_request(req));
  EXPECT_EQ(req.path, "/tmp/x.trace");
  EXPECT_EQ(req.capacity, 128u);
  EXPECT_FALSE(take_request(req));  // consumed
  set_request("/tmp/y.trace");
  clear_request();
  EXPECT_FALSE(take_request(req));
}

}  // namespace
}  // namespace trace
