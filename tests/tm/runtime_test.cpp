// Unit tests for the Atomos/TCC-style TM runtime: atomicity, isolation,
// read-own-writes, conflict detection and retry, nesting semantics, commit
// and abort handlers, program-directed abort, and stores outside a
// transaction.
#include "tm/runtime.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "tm/shared.h"

namespace atomos {
namespace {

// A cell's virtual address is its conflict identity, so a copy would be a
// private clone no other CPU can conflict with.  Copying is a compile error,
// which is what keeps lambdas from capturing a Shared by value.
static_assert(!std::is_copy_constructible_v<Shared<long>>);
// A cell is a value and an address, in every build: no registry tracks it.
static_assert(std::is_trivially_destructible_v<Shared<long>>);

// A cell names its memory class where it is built: no construction without
// one compiles, whether it omits every argument, gives only the value, or
// gives a label in the class's place.
template <class... Args>
concept CellFrom = requires(Args... args) { Shared<long>(args...); };
static_assert(!CellFrom<>);
static_assert(!CellFrom<int>);
static_assert(!CellFrom<int, const char*>);
static_assert(CellFrom<int, sim::MemClass>);
static_assert(CellFrom<int, sim::MemClass, const char*>);

// A commit handler's abort side is part of the registration's type: a
// commit-only registration does not compile, in any form.  It takes a
// compensation or no_compensation; a null handler is neither.  A top-level
// pair also names its owner: an owner-less on_top_commit does not compile.
using Owner = const void*;
struct Handler {
  void operator()() const {}
};
struct NeedsToken {
  bool operator()() const { return false; }
};
template <class Rt, class... A>
constexpr bool kOnCommit = requires(Rt& rt, A... a) { rt.on_commit(a...); };
template <class Rt, class... A>
constexpr bool kOnTopCommit = requires(Rt& rt, A... a) { rt.on_top_commit(a...); };
template <class Rt, class... A>
constexpr bool kOnAbort = requires(Rt& rt, A... a) { rt.on_abort(a...); };
template <class Rt, class... A>
constexpr bool kOnTopAbort = requires(Rt& rt, A... a) { rt.on_top_abort(a...); };
template <class... A>
constexpr bool kFreeOnCommit = requires(A... a) { atomos::on_commit(a...); };
template <class... A>
constexpr bool kFreeOnAbort = requires(A... a) { atomos::on_abort(a...); };

static_assert(!kOnCommit<Runtime, Handler>);
static_assert(!kOnTopCommit<Runtime, Owner, Handler>);
static_assert(!kFreeOnCommit<Handler>);
static_assert(!kOnCommit<Runtime, Handler, std::nullptr_t>);
static_assert(!kOnTopCommit<Runtime, Owner, Handler, std::nullptr_t, NeedsToken>);
static_assert(!kOnTopCommit<Runtime, Handler, Handler>);
static_assert(!kOnTopCommit<Runtime, Handler, NoCompensation>);
static_assert(!kOnTopCommit<Runtime, Handler, Handler, NeedsToken>);
static_assert(!kOnTopCommit<Runtime, Handler, NoCompensation, NeedsToken>);
static_assert(kOnCommit<Runtime, Handler, Handler>);
static_assert(kOnCommit<Runtime, Handler, NoCompensation>);
static_assert(kFreeOnCommit<Handler, Handler>);
static_assert(kFreeOnCommit<Handler, NoCompensation>);
static_assert(kOnTopCommit<Runtime, Owner, Handler, Handler>);
static_assert(kOnTopCommit<Runtime, Owner, Handler, NoCompensation>);
static_assert(kOnTopCommit<Runtime, Owner, Handler, Handler, NeedsToken>);
static_assert(kOnTopCommit<Runtime, Owner, Handler, NoCompensation, NeedsToken>);
static_assert(kOnAbort<Runtime, Handler>);
static_assert(kOnTopAbort<Runtime, Handler>);
static_assert(kFreeOnAbort<Handler>);

sim::Config tcc_cfg(int cpus) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = sim::Mode::kTcc;
  return c;
}

TEST(RuntimeTest, CommitPublishesWrites) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  Shared<int> x(1, sim::kDataCell);
  eng.spawn([&] {
    atomically([&] {
      x.set(5);
      EXPECT_EQ(x.get(), 5);  // read-own-write
    });
    EXPECT_EQ(x.get(), 5);  // committed
  });
  eng.run();
  EXPECT_EQ(x.unsafe_peek(), 5);
  EXPECT_EQ(eng.stats().cpu(0).commits, 1u);
}

TEST(RuntimeTest, SpeculativeWritesInvisibleToOthers) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  Shared<int> flag(0, sim::kDataCell);
  int seen_by_1 = -1;
  eng.spawn([&] {
    atomically([&] {
      x.set(99);
      // Run long enough that CPU1 reads while we are still speculative.
      if (Runtime::current().work(1000)) return;
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(100);  // land mid-transaction of CPU0
    seen_by_1 = atomically([&] { return x.get(); });
    (void)flag;
  });
  eng.run();
  EXPECT_EQ(seen_by_1, 0);  // isolation: buffered write was not visible
  EXPECT_EQ(x.unsafe_peek(), 99);
}

TEST(RuntimeTest, ConflictingReaderIsViolatedAndRetries) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  int attempts = 0;
  int final_read = -1;
  // CPU0: long transaction that reads x early, then works; CPU1 commits a
  // write to x in the middle -> CPU0 must be violated and re-execute.
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
  EXPECT_GE(attempts, 2);
  EXPECT_EQ(final_read, 7);  // the retry saw the committed value
  EXPECT_GE(eng.stats().cpu(0).violations, 1u);
  EXPECT_GT(eng.stats().cpu(0).lost_cycles, 0u);
}

TEST(RuntimeTest, DisjointWritesDoNotConflict) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  // Conflicts are per virtual line.  A kMeta cell has a line of its own;
  // two kData cells built back to back would share one.
  Shared<int> a(0, sim::kDataCell);
  Shared<int> b(0, sim::kMetaCell);
  eng.spawn([&] {
    atomically([&] {
      a.set(a.get() + 1);
      if (Runtime::current().work(1000)) return;
    });
  });
  eng.spawn([&] {
    atomically([&] {
      b.set(b.get() + 2);
      if (Runtime::current().work(1000)) return;
    });
  });
  eng.run();
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::violations), 0u);
  EXPECT_EQ(a.unsafe_peek(), 1);
  EXPECT_EQ(b.unsafe_peek(), 2);
}

TEST(RuntimeTest, AtomicityUnderContention) {
  // Classic counter test: N CPUs x K increments inside transactions must
  // total exactly N*K despite violations.
  constexpr int kCpus = 8;
  constexpr int kIncs = 25;
  sim::Engine eng(tcc_cfg(kCpus));
  Runtime rt(eng);
  Shared<long> counter(0, sim::kDataCell);
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&] {
      for (int i = 0; i < kIncs; ++i) {
        atomically([&] { counter.set(counter.get() + 1); });
      }
    });
  }
  eng.run();
  EXPECT_EQ(counter.unsafe_peek(), static_cast<long>(kCpus) * kIncs);
}

TEST(RuntimeTest, NestedAtomicallyConflictRestartsTheEnclosingTransaction) {
  // A nested atomically reads y (written by the other CPU).  The block is
  // part of its enclosing transaction, so the whole transaction restarts.
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> y(0, sim::kDataCell);
  int parent_runs = 0;
  int nested_runs = 0;
  int seen = -1;
  eng.spawn([&] {
    atomically([&] {
      ++parent_runs;
      if (Runtime::current().work(100)) return;
      atomically([&] {
        ++nested_runs;
        seen = y.get();
        if (Runtime::current().work(4000)) return;
      });
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(600);  // inside the nested block's window
    atomically([&] { y.set(3); });
  });
  eng.run();
  EXPECT_EQ(parent_runs, 2);
  EXPECT_EQ(nested_runs, 2);
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(eng.stats().cpu(0).violations, 1u);
  EXPECT_EQ(eng.stats().cpu(0).nested_violations, 0u);
}

TEST(RuntimeTest, ParentReadConflictRestartsWholeTransaction) {
  // The parent itself read y before entering the nested block: a
  // conflicting commit restarts the parent.
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> y(0, sim::kDataCell);
  int parent_runs = 0;
  eng.spawn([&] {
    atomically([&] {
      ++parent_runs;
      (void)y.get();
      if (Runtime::current().work(100)) return;
      atomically([&] { if (Runtime::current().work(4000)) return; });
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(600);
    atomically([&] { y.set(3); });
  });
  eng.run();
  EXPECT_GE(parent_runs, 2);
}

TEST(RuntimeTest, ExceptionCaughtAroundNestedAtomicallyKeepsItsWrites) {
  // A user exception leaves a nested atomically as it leaves any block of
  // code: the enclosing body catches it, and the block's writes and commit
  // handler stay in the enclosing transaction, which commits them.
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  Shared<int> z(0, sim::kDataCell);
  int commit_runs = 0, abort_runs = 0;
  eng.spawn([&] {
    atomically([&] {
      x.set(1);
      try {
        atomically([&] {
          z.set(42);
          x.set(100);
          on_commit([&] { ++commit_runs; }, [&] { ++abort_runs; });
          throw std::runtime_error("nested block fails");
        });
      } catch (const std::runtime_error&) {
      }
      EXPECT_EQ(z.get(), 42);
      EXPECT_EQ(x.get(), 100);
    });
  });
  eng.run();
  EXPECT_EQ(x.unsafe_peek(), 100);
  EXPECT_EQ(z.unsafe_peek(), 42);
  EXPECT_EQ(commit_runs, 1);
  EXPECT_EQ(abort_runs, 0);
  EXPECT_EQ(eng.stats().cpu(0).commits, 1u);
}

TEST(RuntimeTest, OpenNestedCommitsImmediatelyAndDropsDependencies) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> counter(0, sim::kDataCell);
  Shared<int> data(0, sim::kDataCell);
  int observed = -1;
  eng.spawn([&] {
    atomically([&] {
      open_atomically([&] { counter.set(counter.get() + 1); });
      if (Runtime::current().work(5000)) return;  // long tail: CPU1 acts meanwhile
      data.set(1);
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(800);
    observed = atomically([&] { return counter.get(); });
    // Committing a write to `counter` must NOT violate CPU0: its open child
    // already committed and its read/write dependencies were discarded.
    atomically([&] { counter.set(counter.get() + 10); });
  });
  eng.run();
  EXPECT_EQ(observed, 1);  // open-nested result visible pre-parent-commit
  EXPECT_EQ(counter.unsafe_peek(), 11);
  EXPECT_EQ(eng.stats().cpu(0).violations, 0u);
  EXPECT_EQ(data.unsafe_peek(), 1);
  EXPECT_GE(eng.stats().cpu(0).open_commits, 1u);
}

TEST(RuntimeTest, OpenChildSeesParentBufferedWrites) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  int seen = -1;
  eng.spawn([&] {
    atomically([&] {
      x.set(9);
      open_atomically([&] { seen = x.get(); });
    });
  });
  eng.run();
  EXPECT_EQ(seen, 9);
}

TEST(RuntimeTest, CommitHandlerRunsOnCommitOnly) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  int commits = 0, aborts = 0;
  eng.spawn([&] {
    atomically([&] {
      x.set(1);
      on_commit([&] { ++commits; }, [&] { ++aborts; });
    });
  });
  eng.run();
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(aborts, 0);
}

TEST(RuntimeTest, AbortHandlerRunsOnEachAbort) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  int aborts = 0;
  int attempts = 0;
  eng.spawn([&] {
    atomically([&] {
      ++attempts;
      on_abort([&] { ++aborts; });
      (void)x.get();
      if (Runtime::current().work(5000)) return;
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(500);
    atomically([&] { x.set(1); });
  });
  eng.run();
  EXPECT_GE(attempts, 2);
  EXPECT_EQ(aborts, attempts - 1);  // every aborted attempt compensated once
}

// One owner, one top-level pair per transaction: a second registration
// throws and registers nothing, so the abort it causes runs the first
// pair's compensation once and never the second's.
TEST(RuntimeTest, SecondTopCommitOfOneOwnerThrows) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  const int owner = 0;
  int commits = 0, first_aborts = 0, second_aborts = 0;
  bool rejected = false;
  eng.spawn([&] {
    try {
      atomically([&] {
        Runtime::current().on_top_commit(&owner, [&] { ++commits; }, [&] { ++first_aborts; });
        Runtime::current().on_top_commit(&owner, [&] { ++commits; }, [&] { ++second_aborts; });
      });
    } catch (const std::logic_error&) {
      rejected = true;
    }
  });
  eng.run();
  EXPECT_TRUE(rejected);
  EXPECT_EQ(commits, 0);
  EXPECT_EQ(first_aborts, 1);
  EXPECT_EQ(second_aborts, 0);
}

// Two owners in one transaction each keep their pair, and an owner
// registers again on every retry: each attempt is a new transaction.
TEST(RuntimeTest, TopCommitOwnersAreDistinctPerTransaction) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  const int a = 0, b = 0;
  int attempts = 0, commits_a = 0, commits_b = 0, aborts_a = 0, aborts_b = 0;
  eng.spawn([&] {
    atomically([&] {
      ++attempts;
      Runtime::current().on_top_commit(&a, [&] { ++commits_a; }, [&] { ++aborts_a; });
      Runtime::current().on_top_commit(&b, [&] { ++commits_b; }, [&] { ++aborts_b; });
      (void)x.get();
      if (Runtime::current().work(5000)) return;
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(500);
    atomically([&] { x.set(1); });
  });
  eng.run();
  EXPECT_GE(attempts, 2);
  EXPECT_EQ(commits_a, 1);
  EXPECT_EQ(commits_b, 1);
  EXPECT_EQ(aborts_a, attempts - 1);
  EXPECT_EQ(aborts_b, attempts - 1);
}

TEST(RuntimeTest, AbortedOpenChildRunsItsAbortHandlersAndDropsItsCommitHandlers) {
  // Paper S4: an aborting transaction runs its abort handlers and discards
  // its commit handlers; only a committing open child hands its handlers to
  // the parent.  The first child aborts on a user exception that the parent
  // catches, the second commits.
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  std::vector<int> order;
  eng.spawn([&] {
    atomically([&] {
      try {
        open_atomically([&] {
          on_commit([&] { order.push_back(1); }, [&] { order.push_back(-1); });
          throw std::runtime_error("abort the child");
        });
      } catch (const std::runtime_error&) {
      }
      order.push_back(0);  // the aborted child's compensation ran before this
      open_atomically([&] {
        on_commit([&] { order.push_back(2); }, [&] { order.push_back(-2); });
      });
    });
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 2}));
  // The second child, and the first child's compensation, which runs as a
  // detached open transaction.
  EXPECT_EQ(eng.stats().cpu(0).open_commits, 2u);
}

TEST(RuntimeTest, OpenChildHandlersTransferToParent) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  std::vector<int> order;
  eng.spawn([&] {
    atomically([&] {
      open_atomically([&] { on_commit([&] { order.push_back(1); }, no_compensation); });
      on_commit([&] { order.push_back(2); }, no_compensation);
    });
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // ran at PARENT commit, in order
}

// A top commit handler runs inside its transaction's commit token, so an
// open child it starts re-enters the token to commit its write.  The
// child's release must hand the token back to the parent, and the parent's
// release must free it: otherwise CPU 1's later writing commit waits for
// the token forever and the run ends in a virtual deadlock.
TEST(RuntimeTest, CommitHandlerOpenChildReentersTheToken) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<long> x(0, sim::kDataCell);
  Shared<long> y(0, sim::kMetaCell);
  const int owner = 0;
  bool second_committed = false;
  eng.spawn([&] {
    atomically([&] {
      Runtime::current().on_top_commit(
          &owner, [&] { open_atomically([&] { x.set(7); }); }, no_compensation);
    });
  });
  eng.spawn([&] {
    (void)work(5000);
    atomically([&] { y.set(1); });
    second_committed = true;
  });
  eng.run();
  EXPECT_EQ(x.unsafe_peek(), 7);
  EXPECT_EQ(y.unsafe_peek(), 1);
  EXPECT_TRUE(second_committed);
}

// A compensation that unwinds (a user exception escaping its detached open
// transaction) must not drop its siblings: every other registered
// compensation still has to run, or its eager open-nested effect leaks.
// Handlers run newest-first, so the first-run handler throwing used to
// abandon both earlier-registered siblings.
TEST(RuntimeTest, ThrowingCompensationDoesNotDropSiblings) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  int runs_a = 0, runs_b = 0, runs_c = 0;
  bool saw_failure = false;
  eng.spawn([&] {
    try {
      atomically([&] {
        Runtime::current().on_top_abort([&] { ++runs_a; });
        Runtime::current().on_top_abort([&] { ++runs_b; });
        Runtime::current().on_top_abort([&] {
          ++runs_c;
          throw std::logic_error("compensation failed");  // runs first
        });
        throw std::runtime_error("force abort");
      });
    } catch (const std::logic_error&) {
      saw_failure = true;  // the failure still surfaces to the caller
    }
  });
  eng.run();
  EXPECT_EQ(runs_a, 1) << "first-registered sibling compensation was dropped";
  EXPECT_EQ(runs_b, 1) << "second-registered sibling compensation was dropped";
  EXPECT_EQ(runs_c, 1);
  EXPECT_TRUE(saw_failure);
}

TEST(RuntimeTest, ProgramDirectedAbort) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  TxnId victim_id;
  bool id_captured = false;
  int victim_attempts = 0;
  bool killed_ok = false;
  eng.spawn([&] {
    atomically([&] {
      ++victim_attempts;
      victim_id = self_id();
      id_captured = true;
      if (Runtime::current().work(5000)) return;
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(500);
    EXPECT_TRUE(id_captured);
    killed_ok = violate(victim_id);
  });
  eng.run();
  EXPECT_TRUE(killed_ok);
  EXPECT_GE(victim_attempts, 2);
  EXPECT_GE(eng.stats().cpu(0).semantic_violations, 1u);
}

TEST(RuntimeTest, ViolateStaleIncarnationFails) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  TxnId old_id;
  bool captured = false;
  bool result = true;
  eng.spawn([&] {
    atomically([&] { old_id = self_id(); captured = true; });
    (void)Runtime::current().work(4000);  // stay alive while CPU1 tries the kill
  });
  eng.spawn([&] {
    (void)Runtime::current().work(1000);  // after CPU0's transaction committed
    EXPECT_TRUE(captured);
    result = violate(old_id);
  });
  eng.run();
  EXPECT_FALSE(result);  // incarnation retired: kill must not land
}

TEST(RuntimeTest, TxNewRolledBackOnAbortTxDeleteDeferred) {
  static int live = 0;
  struct Obj {
    Obj() { ++live; }
    ~Obj() { --live; }
  };
  sim::Engine eng(tcc_cfg(1));
  {
    Runtime rt(eng);
    eng.spawn([&] {
    // Aborted allocation: destroyed.
    try {
      atomically([&] {
        (void)tx_new<Obj>();
        throw std::runtime_error("abort");
      });
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(live, 0);
    // Committed allocation + committed delete: gone after quiescence.
    Obj* o = nullptr;
    atomically([&] { o = tx_new<Obj>(); });
      EXPECT_EQ(live, 1);
      atomically([&] { tx_delete(o); });
    });
    eng.run();
  }
  EXPECT_EQ(live, 0);

  // Aborted delete: object survives.
  sim::Engine eng2(tcc_cfg(1));
  {
    Runtime rt2(eng2);
    Obj* o2 = new Obj();
    eng2.spawn([&] {
      try {
        atomically([&] {
          tx_delete(o2);
          throw std::runtime_error("abort");
        });
      } catch (const std::runtime_error&) {
      }
      EXPECT_EQ(live, 1);
      atomically([&] { tx_delete(o2); });
    });
    eng2.run();
  }
  EXPECT_EQ(live, 0);
}

TEST(RuntimeTest, LockModeIsPassthrough) {
  sim::Config cfg = tcc_cfg(1);
  cfg.mode = sim::Mode::kLock;
  sim::Engine eng(cfg);
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  int commit_runs = 0;
  eng.spawn([&] {
    atomically([&] {
      x.set(4);
      on_commit([&] { ++commit_runs; }, no_compensation);
      EXPECT_EQ(x.get(), 4);
    });
  });
  eng.run();
  EXPECT_EQ(x.unsafe_peek(), 4);
  EXPECT_EQ(commit_runs, 1);
}

TEST(RuntimeTest, UserExceptionAbortsAndPropagates) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  bool caught = false;
  eng.spawn([&] {
    try {
      atomically([&] {
        x.set(123);
        throw std::runtime_error("user error");
      });
    } catch (const std::runtime_error&) {
      caught = true;
    }
  });
  eng.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(x.unsafe_peek(), 0);  // aborted: nothing published
}

// A worker's store outside any transaction in Tcc mode would publish
// without the commit token: it throws and leaves the cell as it was.
// Stores inside atomically and open_atomically, and setup-thread stores,
// are fine.
TEST(RuntimeTest, StoreOutsideATransactionThrowsInAWorker) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  x.set(1);  // setup thread: a plain store
  eng.spawn([&] {
    // Caught here: an exception escaping a fiber body aborts the process.
    EXPECT_THROW(x.set(42), std::logic_error);
    atomically([&] { x.set(x.get() + 1); });
    open_atomically([&] { x.set(x.get() + 1); });
  });
  eng.run();
  EXPECT_EQ(x.unsafe_peek(), 3);  // 1 + 2: the refused store left no trace
  x.set(4);  // setup thread again, after the run
  EXPECT_EQ(x.unsafe_peek(), 4);
}

TEST(RuntimeTest, SerializedCommitsAreTotalOrder) {
  // Two read-modify-write transactions racing on the same cell: exactly one
  // violates, none is lost (x ends at 2).
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  for (int c = 0; c < 2; ++c) {
    eng.spawn([&] {
      atomically([&] {
        int v = x.get();
        if (Runtime::current().work(200)) return;
        x.set(v + 1);
      });
    });
  }
  eng.run();
  EXPECT_EQ(x.unsafe_peek(), 2);
}

// ---- violations found at commit, after the body has returned ----
//
// CPU1 commits a write to x and holds the commit token through a slow commit
// handler.  Meanwhile CPU0 reads x and reaches a commit that has to wait for
// the token.  CPU1's broadcast flags CPU0 while it waits, so the violation
// is found at commit, not mid-body.

constexpr std::uint64_t kSlowHandlerCycles = 1000;
constexpr std::uint64_t kLateStartCycles = 200;  // CPU1 takes the token first
// The first race's simulated length: delivering the violation as a value
// instead of a throw must not move a single cycle.
constexpr std::uint64_t kCommitRaceCycles = 1142;

void spawn_slow_committer(sim::Engine& eng, Shared<int>& x) {
  eng.spawn([&x] {
    atomically([&x] {
      x.set(7);
      // The handler holds the commit token, so no commit can doom it.
      on_commit([] { (void)Runtime::current().work(kSlowHandlerCycles); }, no_compensation);
    });
  });
}

TEST(RuntimeTest, CommitTimeViolationAbortsWithoutUnwinding) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  Shared<int> y(0, sim::kDataCell);
  int attempts = 0;
  int returned = 0;               // attempts whose body ran to the end
  int aborts_with_exception = 0;  // abort handlers that ran inside a catch block
  eng.spawn([&] {
    (void)Runtime::current().work(kLateStartCycles);
    atomically([&] {
      ++attempts;
      on_abort([&] {
        if (std::current_exception() != nullptr) ++aborts_with_exception;
      });
      y.set(x.get() + 1);
      ++returned;
    });
  });
  spawn_slow_committer(eng, x);
  eng.run();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(returned, 2);  // the flag was found at commit, not mid-body
  EXPECT_EQ(eng.stats().cpu(0).violations, 1u);
  EXPECT_EQ(eng.stats().cpu(0).nested_violations, 0u);
  EXPECT_EQ(y.unsafe_peek(), 8);
  // The commit returned the violation: nothing was thrown, so the abort ran
  // with no exception in flight.
  EXPECT_EQ(aborts_with_exception, 0);
  EXPECT_EQ(eng.elapsed_cycles(), kCommitRaceCycles);
}

TEST(RuntimeTest, NoCompensationRegistersNoAbortHandler) {
  // The violated attempt aborts with nothing to compensate.  An empty
  // compensation lambda would run there as a detached open transaction.
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  Shared<int> y(0, sim::kDataCell);
  int attempts = 0;
  int commits = 0;
  eng.spawn([&] {
    (void)Runtime::current().work(kLateStartCycles);
    atomically([&] {
      ++attempts;
      on_commit([&] { ++commits; }, no_compensation);
      y.set(x.get() + 1);
    });
  });
  spawn_slow_committer(eng, x);
  eng.run();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(eng.stats().cpu(0).violations, 1u);
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::open_commits), 0u);
}

TEST(RuntimeTest, CommitTimeViolationOfParentUnwindsThroughOpenChild) {
  // The parent read x, and its open-nested child is the one waiting for the
  // token when the flag lands.  The child aborts first, then the parent's
  // frames unwind and it restarts once.
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  Shared<int> y(0, sim::kDataCell);
  int parent_runs = 0;
  int child_runs = 0;
  int child_returned = 0;
  int aborts_run = 0;
  int parent_abort_rank = -1;  // position among the abort handlers that ran
  int child_abort_rank = -1;
  eng.spawn([&] {
    (void)Runtime::current().work(kLateStartCycles);
    atomically([&] {
      ++parent_runs;
      on_abort([&] { parent_abort_rank = aborts_run++; });
      const int v = x.get();
      open_atomically([&] {
        ++child_runs;
        on_abort([&] { child_abort_rank = aborts_run++; });
        y.set(v + 1);
        ++child_returned;
      });
    });
  });
  spawn_slow_committer(eng, x);
  eng.run();
  EXPECT_EQ(parent_runs, 2);
  EXPECT_EQ(child_runs, 2);
  EXPECT_EQ(child_returned, 2);  // flagged at the child's commit
  EXPECT_EQ(eng.stats().cpu(0).violations, 1u);
  EXPECT_EQ(eng.stats().cpu(0).nested_violations, 0u);
  EXPECT_EQ(aborts_run, 2);
  EXPECT_EQ(child_abort_rank, 0);  // the child's abort handler runs first
  EXPECT_EQ(parent_abort_rank, 1);
  EXPECT_EQ(y.unsafe_peek(), 8);
}

TEST(RuntimeTest, ReadOnlyOpenChildFlaggedInTokenWaitRetriesAlone) {
  // A read-only open child waits for the token to order itself against the
  // commit in progress.  Only the child read x, so only the child retries.
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  Shared<int> y(0, sim::kDataCell);
  int parent_runs = 0;
  int child_runs = 0;
  int child_returned = 0;
  eng.spawn([&] {
    (void)Runtime::current().work(kLateStartCycles);
    atomically([&] {
      ++parent_runs;
      const int v = open_atomically([&] {
        ++child_runs;
        const int seen = x.get();
        ++child_returned;
        return seen;
      });
      y.set(v + 1);
    });
  });
  spawn_slow_committer(eng, x);
  eng.run();
  EXPECT_EQ(parent_runs, 1);
  EXPECT_EQ(child_runs, 2);
  EXPECT_EQ(child_returned, 2);  // flagged during the token wait
  EXPECT_EQ(eng.stats().cpu(0).violations, 0u);
  EXPECT_EQ(eng.stats().cpu(0).nested_violations, 1u);
  EXPECT_EQ(y.unsafe_peek(), 8);
}

// ---- violations found by work(), mid-body ----
//
// CPU0 reads x, then works for kTailCycles.  CPU1 commits a write to x
// kWriterDelayCycles in, which flags CPU0 while it works.  work() reports
// the flag and the body returns; the atomically boundary aborts it.  Each
// race's simulated length is pinned: it is the same whether the violation
// is returned or thrown.

constexpr std::uint64_t kTailCycles = 5000;
constexpr std::uint64_t kWriterDelayCycles = 500;
constexpr std::uint64_t kWorkRaceCycles = 10133;
constexpr std::uint64_t kDiscardRaceCycles = 15131;
constexpr std::uint64_t kNestedRaceCycles = 10131;
constexpr std::uint64_t kOpenChildRaceCycles = 10217;

void spawn_writer(sim::Engine& eng, Shared<int>& x) {
  eng.spawn([&x] {
    (void)Runtime::current().work(kWriterDelayCycles);
    atomically([&x] { x.set(7); });
  });
}

/// Counts the body frames that a C++ exception unwinds.
struct UnwindProbe {
  int& unwound;
  ~UnwindProbe() {
    if (std::uncaught_exceptions() > 0) ++unwound;
  }
};

TEST(RuntimeTest, WorkViolationAbortsWithoutUnwinding) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  Shared<int> y(0, sim::kDataCell);
  int attempts = 0;
  int unwound = 0;
  int aborts_with_exception = 0;  // abort handlers that ran inside a catch block
  eng.spawn([&] {
    atomically([&] {
      UnwindProbe probe{unwound};
      ++attempts;
      on_abort([&] {
        if (std::current_exception() != nullptr) ++aborts_with_exception;
      });
      const int v = x.get();
      if (Runtime::current().work(kTailCycles)) return;
      y.set(v + 1);
    });
  });
  spawn_writer(eng, x);
  eng.run();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(eng.stats().cpu(0).violations, 1u);
  EXPECT_EQ(eng.stats().cpu(0).nested_violations, 0u);
  EXPECT_EQ(y.unsafe_peek(), 8);
  // The body returned: nothing was thrown, so no frame unwound and the
  // abort ran with no exception in flight.
  EXPECT_EQ(unwound, 0);
  EXPECT_EQ(aborts_with_exception, 0);
  EXPECT_EQ(eng.elapsed_cycles(), kWorkRaceCycles);
}

TEST(RuntimeTest, DiscardedWorkResultThrowsAtTheSameClock) {
  // A body that ignores work()'s report stops at its next poll, which throws
  // before it ticks: the same clock and the same counts as returning.
  struct Outcome {
    std::uint64_t cycles = 0;
    std::uint64_t violations = 0;
    int attempts = 0;
    int unwound = 0;
  };
  auto run = [](bool discard) {
    sim::Engine eng(tcc_cfg(2));
    Runtime rt(eng);
    Shared<int> x(0, sim::kDataCell);
    Shared<int> y(0, sim::kDataCell);
    Outcome o;
    eng.spawn([&] {
      atomically([&] {
        UnwindProbe probe{o.unwound};
        ++o.attempts;
        const int v = x.get();
        if (discard) {
          (void)Runtime::current().work(kTailCycles);
          (void)Runtime::current().work(kTailCycles);  // throws a discarded report
        } else {
          if (Runtime::current().work(kTailCycles)) return;
          if (Runtime::current().work(kTailCycles)) return;
        }
        y.set(v + 1);
      });
    });
    spawn_writer(eng, x);
    eng.run();
    o.cycles = eng.elapsed_cycles();
    o.violations = eng.stats().cpu(0).violations;
    EXPECT_EQ(y.unsafe_peek(), 8);
    return o;
  };
  const Outcome returned = run(false);
  const Outcome discarded = run(true);
  EXPECT_EQ(returned.cycles, kDiscardRaceCycles);
  EXPECT_EQ(discarded.cycles, kDiscardRaceCycles);
  EXPECT_EQ(returned.violations, 1u);
  EXPECT_EQ(discarded.violations, 1u);
  EXPECT_EQ(returned.attempts, 2);
  EXPECT_EQ(discarded.attempts, 2);
  EXPECT_EQ(returned.unwound, 0);
  EXPECT_EQ(discarded.unwound, 1);  // the second poll threw
}

TEST(RuntimeTest, NestedWorkViolationStopsEveryEnclosingBody) {
  // The innermost of three nested atomically blocks read x, and its work()
  // reports the doom.  That block returns, and its boundary throws the
  // violation on: no host code after an inner call runs in the doomed
  // attempt, and the top-level transaction restarts.
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  Shared<int> y(0, sim::kDataCell);
  int top_runs = 0, outer_runs = 0, inner_runs = 0;
  int after_inner = 0, after_outer = 0;
  int unwound = 0;
  eng.spawn([&] {
    atomically([&] {
      ++top_runs;
      atomically([&] {
        ++outer_runs;
        atomically([&] {
          UnwindProbe probe{unwound};
          ++inner_runs;
          const int v = x.get();
          if (Runtime::current().work(kTailCycles)) return;
          y.set(v + 1);
        });
        ++after_inner;
      });
      ++after_outer;
    });
  });
  spawn_writer(eng, x);
  eng.run();
  EXPECT_EQ(top_runs, 2);
  EXPECT_EQ(outer_runs, 2);
  EXPECT_EQ(inner_runs, 2);
  EXPECT_EQ(after_inner, 1);  // the committing attempt only
  EXPECT_EQ(after_outer, 1);
  EXPECT_EQ(unwound, 0);  // the reporting block returned
  EXPECT_EQ(eng.stats().cpu(0).violations, 1u);
  EXPECT_EQ(eng.stats().cpu(0).nested_violations, 0u);
  EXPECT_EQ(y.unsafe_peek(), 8);
  EXPECT_EQ(eng.elapsed_cycles(), kNestedRaceCycles);
}

TEST(RuntimeTest, OpenChildWorkFindsParentDoomed) {
  // The parent read x; its open child is working when the flag lands.  The
  // child returns and commits nothing, and the parent restarts.
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  Shared<int> y(0, sim::kDataCell);
  int parent_runs = 0;
  int child_runs = 0;
  eng.spawn([&] {
    atomically([&] {
      ++parent_runs;
      const int v = x.get();
      open_atomically([&] {
        ++child_runs;
        if (Runtime::current().work(kTailCycles)) return;
        y.set(v + 1);
      });
    });
  });
  spawn_writer(eng, x);
  eng.run();
  EXPECT_EQ(parent_runs, 2);
  EXPECT_EQ(child_runs, 2);
  EXPECT_EQ(eng.stats().cpu(0).open_commits, 1u);  // the retry's child only
  EXPECT_EQ(eng.stats().cpu(0).violations, 1u);
  EXPECT_EQ(eng.stats().cpu(0).nested_violations, 0u);
  EXPECT_EQ(y.unsafe_peek(), 8);
  EXPECT_EQ(eng.elapsed_cycles(), kOpenChildRaceCycles);
}

TEST(RuntimeTest, CommitHandlerFindingItsTransactionDoomedAbortsTheCommit) {
  // CPU 0's commit handler is working, inside the commit token, when CPU 1
  // violate()s its transaction.  The handler's work() reports the doom and
  // the handler returns: the commit aborts and retries instead of
  // publishing, so the retry reads the unpublished value again.
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  TxnId victim;
  bool captured = false;
  bool violated = false;
  int attempts = 0, handler_runs = 0, handler_finished = 0;
  eng.spawn([&] {
    atomically([&] {
      ++attempts;
      victim = self_id();
      captured = true;
      x.set(x.get() + 1);
      on_commit(
          [&] {
            ++handler_runs;
            if (Runtime::current().work(kTailCycles)) return;
            ++handler_finished;
          },
          no_compensation);
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(kWriterDelayCycles);  // CPU 0 is in its handler
    EXPECT_TRUE(captured);
    violated = violate(victim);
  });
  eng.run();
  EXPECT_TRUE(violated);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(handler_runs, 2);
  EXPECT_EQ(handler_finished, 1);
  EXPECT_EQ(x.unsafe_peek(), 1);  // the doomed commit published nothing
  EXPECT_EQ(eng.stats().cpu(0).commits, 1u);
  EXPECT_EQ(eng.stats().cpu(0).violations, 1u);
  EXPECT_EQ(eng.stats().cpu(0).semantic_violations, 1u);
}

TEST(RuntimeTest, WorkReportsNothingInLockModeOrOutsideATransaction) {
  {
    // Lock mode: atomically() is a plain call, and a write dooms no reader.
    sim::Config cfg = tcc_cfg(2);
    cfg.mode = sim::Mode::kLock;
    sim::Engine eng(cfg);
    Runtime rt(eng);
    Shared<int> x(0, sim::kDataCell);
    int reported = 0;
    eng.spawn([&] {
      atomically([&] {
        (void)x.get();
        if (Runtime::current().work(kTailCycles)) ++reported;
      });
    });
    spawn_writer(eng, x);
    eng.run();
    EXPECT_EQ(reported, 0);
  }
  // Outside a transaction, before and after this CPU's violated one.
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x(0, sim::kDataCell);
  int reported = 0;
  int attempts = 0;
  eng.spawn([&] {
    if (Runtime::current().work(100)) ++reported;
    atomically([&] {
      ++attempts;
      (void)x.get();
      if (Runtime::current().work(kTailCycles)) return;
    });
    if (Runtime::current().work(100)) ++reported;
  });
  spawn_writer(eng, x);
  eng.run();
  EXPECT_EQ(reported, 0);
  EXPECT_EQ(attempts, 2);
}

TEST(RuntimeTest, DeterministicViolationCounts) {
  auto run_once = [] {
    sim::Engine eng(tcc_cfg(4));
    Runtime rt(eng);
    Shared<long> c(0, sim::kDataCell);
    for (int i = 0; i < 4; ++i) {
      eng.spawn([&] {
        for (int k = 0; k < 10; ++k)
          atomically([&] {
            c.set(c.get() + 1);
            if (Runtime::current().work(97)) return;
          });
      });
    }
    eng.run();
    return std::pair(eng.elapsed_cycles(), eng.stats().total(&sim::CpuStats::violations));
  };
  EXPECT_EQ(run_once(), run_once());
}

// A labelled cell names its line in the tracer the Runtime attached; with no
// trace request there is no tracer, and nothing to label.
TEST(RuntimeTest, LabelledCellsLabelTheAttachedTracer) {
  {
    sim::Engine eng(tcc_cfg(1));
    Runtime rt(eng);
    Shared<long> cell(0, sim::kMetaCell, "Map.size");
    EXPECT_EQ(rt.tracer(), nullptr);
  }
  trace::set_request("");  // in-memory tracer, never written
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  ASSERT_NE(rt.tracer(), nullptr);
  Shared<long> cell(0, sim::kMetaCell, "Map.size");
  const auto& labels = rt.tracer()->labels();
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels.begin()->second, "Map.size");
}

// unsafe_peek reads the committed value behind the read set, so a worker
// fiber may not call it: there it throws, in every build.  Setup code and
// the code after the run read the value freely.
TEST(RuntimeTest, UnsafePeekOnAWorkerFiberThrows) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  Shared<int> x(7, sim::kDataCell);
  EXPECT_EQ(x.unsafe_peek(), 7);
  eng.spawn([&] {
    // Caught here: an exception escaping a fiber body aborts the process.
    EXPECT_THROW(x.unsafe_peek(), std::logic_error);
    atomically([&] { x.set(x.get() + 1); });
  });
  eng.run();
  EXPECT_EQ(x.unsafe_peek(), 8);
}

// A profile label is host state that no abort rolls back, so it belongs in
// setup: a labelled cell built on a worker fiber throws whether or not a
// tracer is attached, while a label attached during setup reaches the
// tracer.  An unlabelled cell may be built anywhere.
TEST(RuntimeTest, LabelledCellBuiltOnAWorkerFiberThrows) {
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "with a tracer" : "without a tracer");
    if (traced) trace::set_request("");  // in-memory tracer, never written
    sim::Engine eng(tcc_cfg(1));
    Runtime rt(eng);
    ASSERT_EQ(rt.tracer() != nullptr, traced);
    Shared<long> setup_cell(1, sim::kMetaCell, "setup-cell");
    eng.spawn([&] {
      EXPECT_THROW(Shared<long>(5, sim::kDataCell, "mid-run-cell"), std::logic_error);
      Shared<long> unlabelled(5, sim::kDataCell);
      atomically([&] { setup_cell.set(setup_cell.get() + unlabelled.get()); });
    });
    eng.run();
    EXPECT_EQ(setup_cell.unsafe_peek(), 6);
    if (traced) {
      const auto& labels = rt.tracer()->labels();
      ASSERT_EQ(labels.size(), 1u);
      EXPECT_EQ(labels.begin()->second, "setup-cell");
    }
  }
}

}  // namespace
}  // namespace atomos
