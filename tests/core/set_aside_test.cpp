// A transaction whose open-nested child aborts with abort handlers of its
// own lives on while those handlers run.  The runtime sets its stack aside
// for that time (the handlers run as detached open transactions), but the
// parent is still live: a commit during the compensation must find it, by
// memory conflict (flag_readers), by semantic lock (violate) and
// as a holder of host pointers (deferred reclamation).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/txmap.h"
#include "jstd/hashmap.h"
#include "tm/shared.h"

namespace atomos {
namespace {

sim::Config tcc_cfg(int cpus) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = sim::Mode::kTcc;
  return c;
}

struct ChildFailed : std::runtime_error {
  ChildFailed() : std::runtime_error("child failed") {}
};

/// An open-nested child that registers `comps` compensations of `cycles`
/// each and then fails, so they run while the caller's transaction lives on.
void failing_child(int comps, std::uint64_t cycles) {
  try {
    open_atomically([&] {
      for (int i = 0; i < comps; ++i) {
        on_abort([cycles] {
          if (work(cycles)) return;
        });
      }
      throw ChildFailed();
    });
  } catch (const ChildFailed&) {
  }
}

TEST(SetAsideStackTest, CommitDuringChildCompensationFlagsParentReader) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kMetaCell);
  Shared<int> y(0, sim::kMetaCell);
  int parent_runs = 0;
  eng.spawn([&] {
    atomically([&] {
      ++parent_runs;
      const int seen = x.get();
      failing_child(1, 5000);
      y.set(seen + 1);
    });
  });
  eng.spawn([&] {
    (void)work(1500);  // lands inside CPU 0's compensation
    atomically([&] { x.set(10); });
  });
  eng.run();
  EXPECT_EQ(y.unsafe_peek(), 11);  // flagged while set aside, it retried and read 10
  EXPECT_EQ(parent_runs, 2);
  EXPECT_EQ(eng.stats().cpu(0).violations, 1u);
}

TEST(SetAsideStackTest, SemanticLockOfParentSurvivesChildCompensation) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  auto inner = std::make_unique<jstd::HashMap<long, long>>(16);
  inner->put(7, 5);
  tcc::TransactionalMap<long, long> m(std::move(inner));
  Shared<long> out(0, sim::kMetaCell);
  eng.spawn([&] {
    atomically([&] {
      const std::optional<long> v = m.get(7);  // key lock on 7
      failing_child(1, 5000);
      out.set(v.value_or(0) + 1);
    });
  });
  eng.spawn([&] {
    (void)work(1500);  // lands inside CPU 0's compensation
    // Its commit must violate the key's reader, not prune it: a pruned
    // lock would leave 0 semantic violations.
    atomically([&] { m.put(7, 10); });
  });
  eng.run();
  EXPECT_EQ(out.unsafe_peek(), 11);
  EXPECT_EQ(eng.stats().cpu(0).semantic_violations, 1u);
  EXPECT_EQ(m.locked_key_count(), 0u);
}

TEST(SetAsideStackTest, DeleteDuringChildCompensationWaitsForParent) {
  static int live = 0;
  struct Obj {
    Obj() { ++live; }
    ~Obj() { --live; }
  };
  live = 0;
  sim::Engine eng(tcc_cfg(2));
  Shared<Obj*> head(nullptr, sim::kMetaCell);
  Shared<int> z(0, sim::kMetaCell);
  int live_on_resume = -1;
  {
    Runtime rt(eng);
    head.set(new Obj());
    eng.spawn([&] {
      atomically([&] {
        Obj* o = head.get();  // a host pointer the parent holds
        failing_child(2, 2000);
        if (live_on_resume < 0) live_on_resume = live;
        if (o != nullptr) z.set(1);
      });
    });
    eng.spawn([&] {
      (void)work(1000);  // inside the first compensation
      atomically([&] {
        Obj* o = head.get();
        head.set(nullptr);
        tx_delete(o);
      });
      (void)work(1500);  // the next commit falls inside the second
      atomically([&] { z.set(2); });
    });
    eng.run();
  }
  EXPECT_EQ(live_on_resume, 1);  // not reclaimed under the parent's feet
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace atomos
