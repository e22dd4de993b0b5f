// Semantic lock tables for transactional collection classes.
//
// These are the "shared transaction state" rows of the paper's Tables 3/6/9
// (key2lockers, sizeLockers, rangeLockers, first/lastLockers, emptyLockers).
// A lock is a *read intent*: owner = the TxnId of the top-level transaction
// that observed the abstract state.  Writers do commit-time conflict
// detection by violating every owner whose observation their update
// invalidates (optimistic semantic concurrency control); they never block.
//
// In the paper these tables live in transactional memory and are updated by
// open-nested transactions; here they are host-side structures whose
// operations are virtually atomic (the simulator interleaves only at timed
// events) and charged sim::Config::kSemOpCycles each — the documented
// DESIGN.md idealization.  Their *semantics* — survive parent rollback, be
// compensated by abort handlers, be checked at commit — are exact.
#pragma once

#include <algorithm>
#include <cassert>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "tm/runtime.h"

namespace tcc {

// Every lock-table event below is reported once, through
// atomos::report_sem, which reaches the TXCC_CHECKED auditor, the tracer and
// the txmc observer.
using SemKind = atomos::SemEvent::Kind;

/// Charges the cost of `n` semantic-lock / store-buffer ops.  Its callers
/// mutate lock tables next, so a doomed poll throws here instead of
/// returning.
inline void charge_sem_op(std::size_t n = 1) {
  if (atomos::Runtime::active() && sim::Engine::in_worker()) {
    atomos::Runtime& rt = atomos::Runtime::current();
    if (rt.work(n * sim::Config::kSemOpCycles)) rt.throw_reported();
  }
}

/// True where the collection classes run their protocol: on a worker fiber
/// of a Tcc-mode simulation.  Anywhere else (set-up code, Mode::kLock) a
/// wrapper forwards each operation to the collection it wraps.
inline bool transactional() {
  return atomos::Runtime::active() && sim::Engine::in_worker() &&
         atomos::Runtime::current().mode() == sim::Mode::kTcc;
}

/// One collection wrapper's per-CPU state (the thread-local store buffers
/// and held-lock flags of Tables 3, 6 and 9), tied to the calling CPU's
/// top-level transaction.  `State` has a `TxnId id` and a `clear()`; the
/// wrapper's handlers release its locks and then clear it.
template <class State>
class TxnStates {
 public:
  /// The calling CPU's state.  On a top-level transaction's first use it is
  /// cleared and stamped with that transaction's TxnId, and
  /// `first_use(cpu)` registers the wrapper's one handler pair (S5).
  template <class F>
  State& current(F&& first_use) {
    atomos::Runtime& rt = atomos::Runtime::current();
    const int cpu = rt.engine().cpu_id();
    const auto i = static_cast<std::size_t>(cpu);
    if (states_.size() <= i)
      states_.resize(static_cast<std::size_t>(rt.engine().config().num_cpus));
    State& s = states_[i];
    const atomos::TxnId cur = rt.self_id();
    if (!(s.id == cur)) {
      assert(s.id == atomos::TxnId{} && "stale uncompensated state");
      s.clear();
      s.id = cur;
      first_use(cpu);
    }
    return s;
  }

  /// Runs `op(current(first_use))` inside the calling CPU's transaction,
  /// or as a top-level transaction of its own when none is open, so a lone
  /// operation is atomic.
  template <class F, class Op>
  auto run(F&& first_use, Op&& op) {
    atomos::Runtime& rt = atomos::Runtime::current();
    if (rt.in_txn()) return op(current(first_use));
    return rt.atomically([&] { return op(current(first_use)); });
  }

  /// The state of `cpu`, for the handlers `first_use` registered.
  State& operator[](int cpu) { return states_[static_cast<std::size_t>(cpu)]; }

 private:
  std::vector<State> states_;
};

/// A set of top-level transactions holding one semantic read lock.
class LockerSet {
 public:
  /// Adds `owner` (idempotent).
  void add(const atomos::TxnId& owner) {
    if (!contains(owner)) {
      owners_.push_back(owner);
      atomos::report_sem({SemKind::kAcquire, owner, this, trace_id()});
    }
  }

  /// Removes `owner` if present.
  void remove(const atomos::TxnId& owner) {
    auto tail = std::remove(owners_.begin(), owners_.end(), owner);
    if (tail != owners_.end()) {
      owners_.erase(tail, owners_.end());
      atomos::report_sem({SemKind::kRelease, owner, this, trace_id()});
    } else {
      // Nothing to release: a prune already dropped it or the caller is
      // double-releasing (atomos::LockLedger tells which).
      atomos::report_sem({SemKind::kReleaseNoop, owner, this, trace_id()});
    }
  }

  /// Trace identity.  Per-key LockerSets inside a KeyLockTable report the
  /// enclosing table's address so all keys aggregate under one named trace
  /// site; the audit ledger and txmc keep per-set identity regardless.
  void set_trace_id(const void* id) { trace_id_ = id; }
  const void* trace_id() const { return trace_id_ != nullptr ? trace_id_ : this; }

  bool contains(const atomos::TxnId& owner) const {
    return std::find(owners_.begin(), owners_.end(), owner) != owners_.end();
  }

  bool empty() const { return owners_.empty(); }
  std::size_t size() const { return owners_.size(); }

  /// Violates every owner other than `self`; stale owners (already finished
  /// incarnations) are pruned.  Returns the number of transactions doomed.
  int violate_all_except(const atomos::TxnId& self) {
    int doomed = 0;
    auto it = owners_.begin();
    while (it != owners_.end()) {
      if (*it == self) {
        ++it;
        continue;
      }
      if (atomos::Runtime::current().violate(*it)) {
        atomos::report_sem({SemKind::kViolation, *it, this, trace_id()});
        ++doomed;
        ++it;
      } else {
        atomos::report_sem({SemKind::kPrune, *it, this, trace_id()});
        it = owners_.erase(it);  // stale lock: owner already gone
      }
    }
    return doomed;
  }

 private:
  std::vector<atomos::TxnId> owners_;  // small in practice; linear ops
  const void* trace_id_ = nullptr;     // null => this set is its own site
};

/// key -> LockerSet table (the paper's key2lockers).
template <class K, class Hash = std::hash<K>, class Eq = std::equal_to<K>>
class KeyLockTable {
 public:
  void lock(const K& key, const atomos::TxnId& owner) {
    LockerSet& s = table_[key];
    s.set_trace_id(this);  // aggregate all keys under the table's trace site
    s.add(owner);
  }

  void unlock(const K& key, const atomos::TxnId& owner) {
    auto it = table_.find(key);
    if (it == table_.end()) {
      // No locker set for the key at all: same double-release /
      // release-without-acquire situation as LockerSet::remove's miss.
      atomos::report_sem({SemKind::kReleaseNoop, owner, this, this});
      return;
    }
    it->second.remove(owner);
    if (it->second.empty()) table_.erase(it);
  }

  /// Commit-time write conflict on `key`: dooms every other reader of it.
  int violate_holders(const K& key, const atomos::TxnId& self) {
    auto it = table_.find(key);
    if (it == table_.end()) return 0;
    const int doomed = it->second.violate_all_except(self);
    if (it->second.empty()) table_.erase(it);
    return doomed;
  }

  bool is_locked_by(const K& key, const atomos::TxnId& owner) const {
    auto it = table_.find(key);
    return it != table_.end() && it->second.contains(owner);
  }

  std::size_t locked_key_count() const { return table_.size(); }

 private:
  std::unordered_map<K, LockerSet, Hash, Eq> table_;
};

/// Key-range lock table (the paper's rangeLockers): a plain scanned set —
/// Section 3.2 explicitly prefers this over an interval tree for the
/// expected small population.  Bounds are [from, to) by default; a range
/// may instead be closed on the right (`to_closed`), which is how iterators
/// grow their lock to cover exactly the keys returned so far.  nullopt is
/// an open end.
template <class K, class Compare = std::less<K>>
class RangeLockTable {
 public:
  explicit RangeLockTable(Compare cmp = Compare()) : cmp_(cmp) {}

  struct Range {
    std::optional<K> from;  // inclusive
    std::optional<K> to;    // exclusive unless to_closed
    bool to_closed = false;
    atomos::TxnId owner;
  };

  using Handle = typename std::list<Range>::iterator;

  /// Adds a range lock; adjacent/duplicate ranges are not coalesced.  The
  /// returned handle stays valid for the owner's lifetime (it may be used
  /// to extend the range as an iterator advances).
  Handle lock(const std::optional<K>& from, const std::optional<K>& to,
              const atomos::TxnId& owner, bool to_closed = false) {
    ranges_.push_back(Range{from, to, to_closed, owner});
    atomos::report_sem({SemKind::kAcquire, owner, this, this});
    return std::prev(ranges_.end());
  }

  /// Grows a locked range's right end (iterator progress).
  void extend(Handle h, const std::optional<K>& to, bool to_closed) {
    h->to = to;
    h->to_closed = to_closed;
  }

  /// Removes every range owned by `owner` (commit/abort cleanup).
  void unlock_all(const atomos::TxnId& owner) {
    if (ranges_.remove_if([&](const Range& r) { return r.owner == owner; }) > 0) {
      atomos::report_sem({SemKind::kReleaseAll, owner, this, this});
    }
  }

  /// Commit-time conflict: `key` is being added/removed — every other owner
  /// whose locked range contains `key` is doomed.
  int violate_containing(const K& key, const atomos::TxnId& self) {
    int doomed = 0;
    auto it = ranges_.begin();
    while (it != ranges_.end()) {
      if (it->owner == self || !contains(*it, key)) {
        ++it;
        continue;
      }
      if (atomos::Runtime::current().violate(it->owner)) {
        atomos::report_sem({SemKind::kViolation, it->owner, this, this});
        ++doomed;
        ++it;
      } else {
        atomos::report_sem({SemKind::kPrune, it->owner, this, this});
        it = ranges_.erase(it);  // stale
      }
    }
    return doomed;
  }

  std::size_t size() const { return ranges_.size(); }

 private:
  bool contains(const Range& r, const K& key) const {
    if (r.from.has_value() && cmp_(key, *r.from)) return false;  // key < from
    if (r.to.has_value()) {
      if (r.to_closed) {
        if (cmp_(*r.to, key)) return false;  // key > to
      } else {
        if (!cmp_(key, *r.to)) return false;  // key >= to
      }
    }
    return true;
  }

  Compare cmp_;
  std::list<Range> ranges_;
};

}  // namespace tcc
