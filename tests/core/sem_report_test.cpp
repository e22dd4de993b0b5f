// Runtime::report_sem is the one reporting call of the semantic layer: the
// lock tables (core/lockers.h) and the runtime's settles report each event
// once, and the Runtime hands it to the tracer and to the txmc observer.  A
// contended TransactionalMap workload runs with both attached; the
// observer's stream must match the trace's lock and semantic-violation
// events one for one.  Fed the same stream, the txmc oracle's lock ledger
// must find the lock rule kept.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/lockers.h"
#include "core/txmap.h"
#include "jstd/hashmap.h"
#include "mc/oracle.h"
#include "tm/audit.h"
#include "tm/runtime.h"
#include "tm/shared.h"
#include "trace/tracer.h"

namespace tcc {
namespace {

using Kind = atomos::SemEvent::Kind;

constexpr int kCpus = 4;

// A trace-shaped record: what the tracer stores for one semantic event.
struct Rec {
  trace::Kind kind;
  std::uint64_t cycle;
  const void* site;
  std::uint16_t aux;

  friend bool operator==(const Rec&, const Rec&) = default;
};

class SemRecorder final : public atomos::Runtime::McObserver {
 public:
  void on_access(int, sim::LineAddr, bool) override {}
  void on_txn_sets(int, bool, bool, const std::vector<sim::LineAddr>&,
                   const std::vector<sim::LineAddr>&) override {}

  void on_sem(const atomos::SemEvent& e) override {
    ++counts[static_cast<std::size_t>(e.kind)];
    oracle.on_lock_event(e);
    ASSERT_TRUE(sim::Engine::in_worker());
    sim::Engine& eng = sim::Engine::get();
    auto& stream = per_cpu[static_cast<std::size_t>(eng.cpu_id())];
    switch (e.kind) {
      case Kind::kAcquire:
        stream.push_back({trace::Kind::kLockAcquire, eng.now(), e.site, 0});
        break;
      case Kind::kRelease:
      case Kind::kReleaseAll:
        stream.push_back({trace::Kind::kLockRelease, eng.now(), e.site, 0});
        break;
      case Kind::kViolation:
        stream.push_back({trace::Kind::kSemViolationFlag, eng.now(), e.site,
                          static_cast<std::uint16_t>(e.owner.cpu)});
        break;
      default:
        break;  // release no-ops, prunes and settles are not traced
    }
  }

  std::array<std::uint64_t, 7> counts{};
  std::array<std::vector<Rec>, kCpus> per_cpu;
  mc::Oracle oracle;  // judges the lock rule from the same stream
};

std::uint64_t count(const SemRecorder& r, Kind k) {
  return r.counts[static_cast<std::size_t>(k)];
}

sim::Config tcc_cfg() {
  sim::Config cfg;
  cfg.num_cpus = kCpus;
  cfg.mode = sim::Mode::kTcc;
  return cfg;
}

/// Runs the contended workload on `eng`, whose Runtime is built, with `rec`
/// installed as the txmc observer.
void run_contended(sim::Engine& eng, SemRecorder& rec) {
  atomos::Runtime& rt = atomos::Runtime::current();
  rt.set_mc_observer(&rec);
  TransactionalMap<long, long> map(std::make_unique<jstd::HashMap<long, long>>(64));
  for (long k = 0; k < 4; ++k) map.put(k, 0);
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&map, c] {
      for (long i = 0; i < 40; ++i) {
        atomos::atomically([&map, c, i] {
          // Read one key (a key lock), dawdle, then write another: readers
          // are doomed by the commits of the other CPUs, and their aborts
          // run the map's compensation.  A commit that lands while an
          // aborted reader's compensation is still running prunes that
          // reader's stale lock.
          const long v = map.get((c + i) % 4).value_or(0);
          if (atomos::work(50)) return;
          map.put((c + 2 * i + 1) % 4, v + 1);
        });
      }
    });
  }
  eng.run();
  rt.set_mc_observer(nullptr);

  // The workload exercises every kind of event it can reach.
  EXPECT_GT(count(rec, Kind::kAcquire), 0u);
  EXPECT_GT(count(rec, Kind::kRelease), 0u);
  EXPECT_GT(count(rec, Kind::kPrune), 0u);
  EXPECT_GT(count(rec, Kind::kReleaseNoop), 0u);  // the pruned reader's unlock
  EXPECT_GT(count(rec, Kind::kViolation), 0u);
}

/// Attempts of detached compensation transactions in `tr`: each begins as
/// an open transaction with no transaction open on its CPU.
std::uint64_t compensation_attempts(const trace::Tracer& tr) {
  std::uint64_t n = 0;
  for (int c = 0; c < kCpus; ++c) {
    int depth = 0;
    for (std::size_t i = 0; i < tr.count(c); ++i) {
      switch (static_cast<trace::Kind>(tr.events(c)[i].kind)) {
        case trace::Kind::kOpenBegin:
          if (depth == 0) ++n;
          ++depth;
          break;
        case trace::Kind::kTxnBegin:
          ++depth;
          break;
        case trace::Kind::kTxnCommit:
        case trace::Kind::kTxnAbort:
        case trace::Kind::kOpenCommit:
        case trace::Kind::kOpenAbort:
          --depth;
          break;
        default:
          break;
      }
    }
  }
  return n;
}

TEST(SemReportTest, ObserverStreamMatchesTraceOneForOne) {
  sim::Engine eng(tcc_cfg());
  trace::set_request("");  // in-memory tracer for the Runtime built next
  atomos::Runtime rt(eng);
  ASSERT_NE(rt.tracer(), nullptr);
  SemRecorder rec;
  run_contended(eng, rec);

  const trace::Tracer& tr = *rt.tracer();
  std::uint64_t traced = 0;
  for (int c = 0; c < kCpus; ++c) {
    ASSERT_EQ(tr.dropped(c), 0u) << "cpu " << c;
    std::vector<Rec> want;
    for (std::size_t i = 0; i < tr.count(c); ++i) {
      const trace::Event& ev = tr.events(c)[i];
      const auto kind = static_cast<trace::Kind>(ev.kind);
      if (kind == trace::Kind::kLockAcquire || kind == trace::Kind::kLockRelease ||
          kind == trace::Kind::kSemViolationFlag) {
        want.push_back({kind, ev.cycle, reinterpret_cast<const void*>(ev.arg), ev.aux});
      }
    }
    traced += want.size();
    EXPECT_EQ(rec.per_cpu[static_cast<std::size_t>(c)], want) << "cpu " << c;
  }
  EXPECT_EQ(traced, count(rec, Kind::kAcquire) + count(rec, Kind::kRelease) +
                        count(rec, Kind::kReleaseAll) + count(rec, Kind::kViolation));

  // One settle per top-level commit or abort.  The workload's transactions
  // commit (`commits`) or are violated whole (`violations`), and every
  // attempt of a detached compensation transaction, committed or aborted,
  // settles too.
  const std::uint64_t compensations = compensation_attempts(tr);
  EXPECT_GT(compensations, 0u);
  const sim::Stats& st = eng.stats();
  EXPECT_EQ(count(rec, Kind::kSettle), st.total(&sim::CpuStats::commits) +
                                           st.total(&sim::CpuStats::violations) +
                                           compensations);
}

// A reader pruned while its compensation runs releases nothing afterwards:
// the prune already did.  Neither a leak nor a double release.
TEST(SemReportTest, OracleFindsTheLockRuleKept) {
  sim::Engine eng(tcc_cfg());
  atomos::Runtime rt(eng);
  SemRecorder rec;
  run_contended(eng, rec);
  for (const mc::Violation& v : rec.oracle.check()) ADD_FAILURE() << v.detail;
}

// Conflict detection prunes a range lock whose owner is not live, and an
// owner running its compensation is not live, so a committer can drop the
// lock before the compensation's unlock_all, which then finds nothing and
// reports nothing.  Neither is a finding.  The key-lock twin is
// CheckedRuntimeTest.LockPrunedDuringItsOwnersCompensationIsNotReported;
// this one runs in every build, and the auditor's checks only when checked.
TEST(SemReportTest, RangeLockPrunedDuringItsOwnersCompensationIsNotReported) {
  atomos::audit::reset();
  sim::Config cfg = tcc_cfg();
  cfg.num_cpus = 3;
  sim::Engine eng(cfg);
  atomos::Runtime rt(eng);
  SemRecorder rec;
  rt.set_mc_observer(&rec);
  RangeLockTable<long> ranges;
  atomos::Shared<int> hot(0, sim::kDataCell);
  int attempts = 0;
  int doomed = -1;
  std::size_t size_after_prune = 1;
  eng.spawn([&] {
    atomos::atomically([&] {
      ++attempts;
      const atomos::TxnId me = atomos::self_id();
      ranges.lock(0L, 10L, me);
      atomos::Runtime::current().on_top_commit(
          &ranges, [&ranges, me] { ranges.unlock_all(me); },
          [&ranges, me] {
            // CPU 2 prunes the lock meanwhile.
            if (atomos::work(3000)) return;
            ranges.unlock_all(me);
          });
      (void)hot.get();
      if (atomos::work(2000)) return;  // CPU 1's commit dooms attempt 1
    });
  });
  eng.spawn([&] {
    (void)atomos::Runtime::current().work(100);
    atomos::atomically([&] { hot.set(1); });
  });
  eng.spawn([&] {
    (void)atomos::Runtime::current().work(3000);  // inside CPU 0's compensation
    atomos::atomically([&] {
      doomed = ranges.violate_containing(5, atomos::self_id());
      size_after_prune = ranges.size();
    });
  });
  eng.run();
  rt.set_mc_observer(nullptr);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(doomed, 0);                // pruned, not doomed
  EXPECT_EQ(size_after_prune, 0u);     // the prune landed before the unlock_all
  EXPECT_EQ(count(rec, Kind::kPrune), 1u);
  // Two acquires, each ended once: attempt 1's by the prune, attempt 2's by
  // its commit.  The compensation's unlock_all found nothing to report.
  EXPECT_EQ(count(rec, Kind::kAcquire), 2u);
  EXPECT_EQ(count(rec, Kind::kReleaseAll), 1u);
  EXPECT_EQ(count(rec, Kind::kReleaseNoop), 0u);
  EXPECT_EQ(ranges.size(), 0u);
  for (const mc::Violation& v : rec.oracle.check()) ADD_FAILURE() << v.detail;
  EXPECT_EQ(atomos::audit::total(), 0u)
      << (atomos::audit::reports().empty() ? "" : atomos::audit::reports()[0]);
}

}  // namespace
}  // namespace tcc
