// Runtime::report_sem is the one reporting call of the semantic layer: the
// lock tables (core/lockers.h) and the collection compensations report each
// event once, and the Runtime hands it to the tracer and to the txmc
// observer.  A contended TransactionalMap workload runs with both attached;
// the observer's stream must match the trace's lock and semantic-violation
// events one for one.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/txmap.h"
#include "jstd/hashmap.h"
#include "tm/runtime.h"
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
        break;  // release no-ops, prunes and compensations are not traced
    }
  }

  std::array<std::uint64_t, 7> counts{};
  std::array<std::vector<Rec>, kCpus> per_cpu;
};

std::uint64_t count(const SemRecorder& r, Kind k) {
  return r.counts[static_cast<std::size_t>(k)];
}

TEST(SemReportTest, ObserverStreamMatchesTraceOneForOne) {
  sim::Config cfg;
  cfg.num_cpus = kCpus;
  cfg.mode = sim::Mode::kTcc;
  sim::Engine eng(cfg);
  trace::set_request("");  // in-memory tracer for the Runtime built next
  atomos::Runtime rt(eng);
  ASSERT_NE(rt.tracer(), nullptr);
  SemRecorder rec;
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

  // The workload exercises every kind of lock-table event it can reach.
  EXPECT_GT(count(rec, Kind::kAcquire), 0u);
  EXPECT_GT(count(rec, Kind::kRelease), 0u);
  EXPECT_GT(count(rec, Kind::kPrune), 0u);
  EXPECT_GT(count(rec, Kind::kReleaseNoop), 0u);  // the pruned reader's unlock
  EXPECT_GT(count(rec, Kind::kViolation), 0u);
  EXPECT_GT(count(rec, Kind::kCompensation), 0u);

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
}

}  // namespace
}  // namespace tcc
