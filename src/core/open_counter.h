// Open-nested counters and UID generation (paper Sections 1 and 6.3).
//
// Global counters (statistics) and unique-id generators (SPECjbb's
// District.nextOrder) are the canonical cases where *selectively reducing
// isolation* pays: wrapping the read-modify-write in an open-nested
// transaction removes the counter's cache line from the parent's read/write
// set, so long transactions no longer serialize on it.
//
// Three flavours with increasing guarantees:
//  * OpenCounter        — pure open nesting, no compensation: totals reflect
//                         every ATTEMPT (aborted transactions included) —
//                         fine for profiling counters.
//  * CompensatedCounter — registers an abort handler that subtracts the
//                         contribution back out, so committed totals are
//                         exact while still avoiding parent conflicts.
//  * UidGenerator       — monotonically increasing ids; aborted parents
//                         leave holes, which is precisely the database
//                         community's serializability-vs-isolation example
//                         the paper cites (Gray & Reuter).
//
// Every counter cell lives line-isolated in the counter arena
// (sim::kCounterCell): open nesting removes the counter from the parent's
// read/write set only if no *parent-level* cell is co-resident on the
// counter's line — the fig4 feedback storm came from exactly that layout
// accident (see sim/vaddr.h and EXPERIMENTS.md).
#pragma once

#include "tm/runtime.h"
#include "tm/shared.h"

namespace tcc {

/// A counter updated in open-nested transactions; not compensated on abort.
class OpenCounter {
 public:
  explicit OpenCounter(long initial = 0, const char* name = nullptr)
      : v_(initial, sim::kCounterCell, name) {}

  long get() const {
    return atomos::open_atomically([&] { return v_.get(); });
  }

  void add(long delta) {
    atomos::open_atomically([&] { v_.set(v_.get() + delta); });
  }

  /// Raw committed value (tests/reporting).
  long unsafe_peek() const { return v_.unsafe_peek(); }

 private:
  atomos::Shared<long> v_;
};

/// An open-nested counter whose updates are compensated if the enclosing
/// transaction aborts: committed totals are exact, yet the parent carries
/// no memory dependency on the counter line.
class CompensatedCounter {
 public:
  explicit CompensatedCounter(long initial = 0, const char* name = nullptr)
      : v_(initial, sim::kCounterCell, name) {}

  long get() const {
    return atomos::open_atomically([&] { return v_.get(); });
  }

  void add(long delta) {
    atomos::open_atomically([&] { v_.set(v_.get() + delta); });
    // Pinned to the top-level transaction: the open-nested update above
    // survives the rollback of any open child around it, so its
    // compensation must too.
    atomos::Runtime::current().on_top_abort([this, delta] {
      atomos::open_atomically([&] { v_.set(v_.get() - delta); });
    });
  }

  long unsafe_peek() const { return v_.unsafe_peek(); }

 private:
  atomos::Shared<long> v_;
};

/// Monotonically increasing unique-id source.  Aborted transactions burn
/// ids (holes) — serializable histories are traded for concurrency, exactly
/// the UID discussion in Section 1.
class UidGenerator {
 public:
  explicit UidGenerator(long first = 1, const char* name = nullptr)
      : next_(first, sim::kCounterCell, name) {}

  long next() {
    return atomos::open_atomically([&] {
      const long id = next_.get();
      next_.set(id + 1);
      return id;
    });
  }

  long unsafe_peek_next() const { return next_.unsafe_peek(); }
  /// A bound on the next id that may be stale (Shared::stale_read).
  long stale_next() const { return next_.stale_read(); }

 private:
  atomos::Shared<long> next_;
};

}  // namespace tcc
