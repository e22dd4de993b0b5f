// Seeded-mutant collection classes for the txmc litmus corpus.
//
// Each mutant subclasses a real transactional collection and breaks exactly
// ONE rule of the paper's protocol; the litmus corpus pairs each with the
// anomaly class the oracle must report for it:
//
//   LockDroppingMap   reads without the key lock        -> lost-semantic-lock
//   EagerOpenMap      applies puts eagerly, open-nested -> non-commuting-open-nesting
//   NoLockPutMap      RMW put without the key read-lock -> lost-update
//   LossyQueue        abort drops the removeBuffer      -> compensation-inversion
//   DoubleReleaseMap  commit releases key locks twice   -> double-release
//   LeakyAbortMap     abort forgets to release locks    -> lock-leak
//
// Each override is written like the wrapper's own operations, through the
// shared state protocol (`run`, tcc::TxnStates), so it differs from the
// real operation only in the rule it breaks.  They live in the mc library
// (not tests/) so both the txmc CLI and the test suite exercise the
// identical corpus.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/txmap.h"
#include "core/txqueue.h"
#include "tm/runtime.h"

namespace mc {

using LongMap = tcc::TransactionalMap<long, long>;

/// get() that observes the committed map WITHOUT taking the key read-lock:
/// a later committed writer of the key no longer violates this reader.
class LockDroppingMap final : public LongMap {
 public:
  using LongMap::LongMap;

  std::optional<long> get(const long& key) const override {
    if (!tcc::transactional()) return inner_->get(key);
    return run([&](LocalState& ls) -> std::optional<long> {
      if (auto hit = buffered_lookup(ls, key)) return *hit;
      return atomos::open_atomically([&] {
        tcc::charge_sem_op();
        return inner_->get(key);  // BUG: no lock_key(ls, key)
      });
    });
  }
};

/// put() applied EAGERLY through an open-nested child: the write is visible
/// to everyone before the parent commits, and the parent's commit handler
/// (empty store buffer) violates nobody.
class EagerOpenMap final : public LongMap {
 public:
  using LongMap::LongMap;

  std::optional<long> put(const long& key, const long& value) override {
    if (!tcc::transactional()) return inner_->put(key, value);
    return run([&](LocalState&) {
      return atomos::open_atomically([&] {
        tcc::charge_sem_op();
        return inner_->put(key, value);  // BUG: pre-commit state leaks
      });
    });
  }
};

/// put() that reads the old value WITHOUT the key read-lock: two concurrent
/// read-modify-write puts of the same key both commit, the second silently
/// overwriting an update it never observed.
class NoLockPutMap final : public LongMap {
 public:
  using LongMap::LongMap;

  std::optional<long> put(const long& key, const long& value) override {
    if (!tcc::transactional()) return inner_->put(key, value);
    return run([&](LocalState& ls) {
      std::optional<long> old;
      if (auto hit = buffered_lookup(ls, key)) {
        old = *hit;
      } else {
        old = atomos::open_atomically([&] {
          tcc::charge_sem_op();
          return inner_->get(key);  // BUG: unlocked observation
        });
      }
      Entry& e = ls.store[key];
      if (!e.touched) e.present_before = old.has_value();
      e.buffer(&value);
      return old;
    });
  }
};

/// Abort compensation that DROPS eagerly removed elements instead of
/// pushing them back: an aborted consumer loses work items forever.
class LossyQueue final : public tcc::TransactionalQueue<long> {
 public:
  using TransactionalQueue::TransactionalQueue;

 protected:
  void abort_handler(int cpu) override {
    LocalState& ls = states_[cpu];
    tcc::charge_sem_op();
    ls.remove_buffer.clear();  // BUG: elements vanish instead of returning
    release_and_clear(ls);
  }
};

/// Commit handler that releases the transaction's key locks a second time
/// after the base handler already released everything.
class DoubleReleaseMap final : public LongMap {
 public:
  using LongMap::LongMap;

 protected:
  void commit_handler(int cpu) override {
    LocalState& ls = states_[cpu];
    const std::vector<long> keys = ls.key_locks;  // base clears these
    const atomos::TxnId id = ls.id;
    LongMap::commit_handler(cpu);
    for (const long& k : keys) key_lockers_.unlock(k, id);  // BUG: again
  }
};

/// Abort handler that clears the local state WITHOUT releasing semantic
/// locks: the dead incarnation's locks linger in the tables forever.
class LeakyAbortMap final : public LongMap {
 public:
  using LongMap::LongMap;

 protected:
  void abort_handler(int cpu) override {
    LocalState& ls = states_[cpu];
    tcc::charge_sem_op();
    ls.clear();  // BUG: key/size/empty locks never released
  }
};

}  // namespace mc
