// Precision tests for the txlint scanner: each rule must fire exactly where
// the fixture plants a violation, and stay quiet on the idiomatic patterns
// the real tree uses (paired handlers, by-ref captures, suppression
// comments).
#include "scanner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace txlint {
namespace {

std::vector<Finding> scan(std::string_view src, const Options& opts = {}) {
  return scan_source("fixture.cpp", src, opts);
}

std::vector<Finding> of_rule(const std::vector<Finding>& fs, std::string_view rule) {
  std::vector<Finding> out;
  for (const auto& f : fs) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

bool fires_at(const std::vector<Finding>& fs, std::string_view rule, int line) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule && f.line == line; });
}

TEST(TxlintRules, FiveRulesRegistered) {
  const auto& rs = rules();
  ASSERT_EQ(rs.size(), 5u);
  std::vector<std::string_view> names;
  for (const auto& r : rs) names.push_back(r.name);
  for (const char* want : {"shared-field", "catch-swallow", "trace-hook",
                           "hot-path-container", "handler-closure"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end()) << want;
  }
}

// ---- shared-field ----

TEST(SharedFieldRule, FlagsMutablePrimitiveAndPointerMembersInJstd) {
  const std::string src =
      "namespace jstd {\n"                        // 1
      "template <class K>\n"                      // 2
      "class Node {\n"                            // 3
      " public:\n"                                // 4
      "  int count_;\n"                           // 5  <- primitive
      "  Node* next_;\n"                          // 6  <- raw pointer
      "  atomos::Shared<long> ok_;\n"             // 7
      "  const int fixed_ = 3;\n"                 // 8
      "  std::size_t size() const { return 0; }\n"  // 9
      "};\n"                                      // 10
      "}\n";
  const auto fs = scan(src);
  const auto sf = of_rule(fs, "shared-field");
  EXPECT_EQ(sf.size(), 2u);
  EXPECT_TRUE(fires_at(fs, "shared-field", 5));
  EXPECT_TRUE(fires_at(fs, "shared-field", 6));
}

TEST(SharedFieldRule, IgnoresOutsideJstdAndTransactionLocalClasses) {
  const std::string src =
      "namespace jbb {\n"
      "class Model { int plain_; };\n"  // not jstd: fine
      "}\n"
      "namespace jstd {\n"
      "class MapIter { long pos_; };\n"    // *Iter*: transaction-local
      "class LockGuard { bool held_; };\n"  // *Guard*: RAII
      "class Table { Node* const head_; };\n"  // const anywhere: immutable
      "}\n";
  EXPECT_TRUE(of_rule(scan(src), "shared-field").empty());
}

// ---- catch-swallow ----

TEST(CatchSwallowRule, FlagsSwallowedUnwinds) {
  const std::string src =
      "void f() {\n"                                     // 1
      "  try { g(); } catch (...) {\n"                   // 2  <- swallows
      "    log();\n"                                     // 3
      "  }\n"                                            // 4
      "  try { g(); } catch (const Violated& v) {\n"     // 5  <- swallows
      "    count++;\n"                                   // 6
      "  }\n"                                            // 7
      "}\n";
  const auto fs = scan(src);
  EXPECT_EQ(of_rule(fs, "catch-swallow").size(), 2u);
  EXPECT_TRUE(fires_at(fs, "catch-swallow", 2));
  EXPECT_TRUE(fires_at(fs, "catch-swallow", 5));
}

TEST(CatchSwallowRule, AllowsEscapingBodiesAndSpecificExceptions) {
  const std::string src =
      "void f() {\n"
      "  try { g(); } catch (...) { cleanup(); throw; }\n"       // rethrows
      "  try { g(); } catch (const Violated&) { std::abort(); }\n"  // dies
      "  try { g(); } catch (const std::exception& e) { log(e); }\n"  // specific
      "}\n";
  EXPECT_TRUE(of_rule(scan(src), "catch-swallow").empty());
}

// ---- handler-closure ----

TEST(HandlerClosureRule, FlagsStaleSnapshotsCapturedIntoTransactionBodies) {
  const std::string src =
      "void handler(Map& sessions, Queue& q) {\n"            // 1
      "  auto bal = sessions.get(7);\n"                      // 2  snapshot
      "  auto req = q.try_dequeue();\n"                      // 3  snapshot
      "  atomos::atomically([bal] {\n"                       // 4  <- named copy
      "    use(bal);\n"                                      // 5
      "  });\n"                                              // 6
      "  atomos::atomically([r = req] { use(r); });\n"       // 7  <- init-capture
      "  atomos::open_atomically([=] { return bal; });\n"    // 8  <- [=] uses bal
      "}\n";
  const auto fs = scan(src);
  const auto hc = of_rule(fs, "handler-closure");
  EXPECT_EQ(hc.size(), 3u);
  EXPECT_TRUE(fires_at(fs, "handler-closure", 4));
  EXPECT_TRUE(fires_at(fs, "handler-closure", 7));
  EXPECT_TRUE(fires_at(fs, "handler-closure", 8));
}

TEST(HandlerClosureRule, AllowsByRefBodiesAndNonTransactionalLambdas) {
  const std::string src =
      "void handler(Map& sessions, Queue& q) {\n"
      "  auto bal = sessions.get(7);\n"
      "  atomos::atomically([&] { use(sessions.get(7)); });\n"  // re-reads inside
      "  atomos::atomically([&bal] { use(bal); });\n"           // by reference
      "  auto log_it = [bal] { print(bal); };\n"   // plain lambda: snapshot fine
      "  log_it();\n"
      "  int plain = 3;\n"
      "  atomos::atomically([plain] { use(plain); });\n"  // not a collection read
      "}\n";
  EXPECT_TRUE(of_rule(scan(src), "handler-closure").empty());
}

// ---- trace-hook ----

TEST(TraceHookRule, FlagsAllocationAndTmAccessInsideHooks) {
  const std::string src =
      "namespace trace {\n"                                   // 1
      "struct T {\n"                                          // 2
      "  void on_txn_begin(int cpu) {\n"                      // 3
      "    events.push_back(cpu);\n"                          // 4  <- alloc path
      "    auto* p = new int(cpu);\n"                         // 5  <- heap alloc
      "    (void)p;\n"                                        // 6
      "  }\n"                                                 // 7
      "  void on_miss(long x) {\n"                            // 8
      "    (void)atomically([&] { return x; });\n"            // 9  <- TM re-entry
      "  }\n"                                                 // 10
      "};\n"                                                  // 11
      "}\n";
  const auto fs = scan(src);
  EXPECT_EQ(of_rule(fs, "trace-hook").size(), 3u);
  EXPECT_TRUE(fires_at(fs, "trace-hook", 4));
  EXPECT_TRUE(fires_at(fs, "trace-hook", 5));
  EXPECT_TRUE(fires_at(fs, "trace-hook", 9));
}

TEST(TraceHookRule, QuietOutsideTraceNamespaceAndNonHookFunctions) {
  const std::string src =
      "namespace trace {\n"
      "struct T {\n"
      "  void write_file() { names.push_back(1); }\n"  // not on_*: setup/IO path
      "  void on_txn_begin(int cpu) {\n"
      "    if (n >= cap) { ++dropped; ++seq; return; }\n"  // raw stores only
      "    buf[n].cycle = cpu;\n"
      "    ++n; ++seq;\n"
      "  }\n"
      "};\n"
      "}\n"
      "namespace app {\n"
      "struct U { void on_click() { items.push_back(2); } };\n"  // not trace::
      "}\n";
  EXPECT_TRUE(of_rule(scan(src), "trace-hook").empty());
}

// ---- hot-path-container ----

TEST(HotPathContainerRule, FlagsNodeContainersInHotPathHeaders) {
  const std::string src =
      "namespace sim {\n"                                      // 1
      "class FlatMap {\n"                                      // 2
      "  std::unordered_map<long, long> slots_;\n"             // 3  <- node-based
      "  std::set<long> keys_;\n"                              // 4  <- node-based
      "  std::vector<long> ctrl_;\n"                           // 5  flat: fine
      "};\n"                                                   // 6
      "}\n";
  const auto fs = scan_source("src/sim/flat_map.h", src);
  const auto hp = of_rule(fs, "hot-path-container");
  EXPECT_EQ(hp.size(), 2u);
  EXPECT_TRUE(fires_at(fs, "hot-path-container", 3));
  EXPECT_TRUE(fires_at(fs, "hot-path-container", 4));
}

TEST(HotPathContainerRule, QuietOutsideTheHotPathHeaders) {
  const std::string src =
      "namespace harness {\n"
      "std::unordered_map<long, long> table;\n"  // same tokens, cold path
      "std::set<int> ids;\n"
      "}\n";
  EXPECT_TRUE(of_rule(scan_source("src/harness/driver.h", src),
                      "hot-path-container")
                  .empty());
  EXPECT_TRUE(of_rule(scan(src), "hot-path-container").empty());  // fixture.cpp
}

TEST(HotPathContainerRule, MatchesByBasenameForEveryHotPathHeader) {
  const std::string src = "std::unordered_set<int> s;\n";
  for (const char* path : {"src/sim/flat_map.h", "src/tm/reader_dir.h", "src/sim/cpu_mask.h",
                           "src/sim/line_table.h", "src/sim/memsys.h", "cpu_mask.h"}) {
    const auto fs = scan_source(path, src);
    EXPECT_EQ(of_rule(fs, "hot-path-container").size(), 1u) << path;
  }
}

// ---- suppressions and options ----

TEST(Suppressions, LineRegionAndFileForms) {
  const std::string line_form =
      "void f() {\n"
      "  // txlint: allow(catch-swallow) - fixture\n"
      "  try { g(); } catch (...) { log(); }\n"  // next line after the comment: suppressed
      "}\n";
  EXPECT_TRUE(scan(line_form).empty());

  const std::string region_form =
      "// txlint: begin-allow(catch-swallow)\n"
      "void f() { try { g(); } catch (...) { log(); } }\n"
      "// txlint: end-allow(catch-swallow)\n"
      "void h() { try { g(); } catch (...) { log(); } }\n";  // outside
  const auto fs = scan(region_form);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 4);

  const std::string file_form =
      "// txlint: allow-file(*)\n"
      "namespace jstd { struct Node { Node* next; }; }\n"
      "void g() { try {} catch (...) {} }\n";
  EXPECT_TRUE(scan(file_form).empty());
}

TEST(Options, OnlyRulesFilterRestrictsScan) {
  const std::string src =
      "namespace jstd { struct Node { Node* next; }; }\n"
      "void f() {\n"
      "  try { g(); } catch (...) { log(); }\n"
      "}\n";
  ASSERT_EQ(scan(src).size(), 2u);
  Options only;
  only.only_rules = {"catch-swallow"};
  const auto fs = scan(src, only);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "catch-swallow");
}

// Comments and string literals never trigger rules.
TEST(Cleaning, CommentsAndStringsAreInert) {
  const std::string src =
      "void f() {\n"
      "  // try { g(); } catch (...) { } in a comment\n"
      "  const char* s = \"catch (...) { }\";\n"
      "  (void)s;\n"
      "}\n";
  EXPECT_TRUE(scan(src).empty());
}

}  // namespace
}  // namespace txlint
