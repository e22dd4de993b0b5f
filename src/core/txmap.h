// tcc::TransactionalMap — the paper's Section 3.1 contribution.
//
// Wraps any jstd::Map so that long-running transactions can use it without
// memory-level conflicts on its internals (size field, bucket chains):
//
//  * read operations (get/containsKey/size/iteration) run in OPEN-NESTED
//    transactions that take semantic locks (Table 2) and then discard their
//    memory dependencies;
//  * write operations (put/remove) buffer their effect in a thread-local
//    store buffer (Table 3) plus a size delta, taking a key read-lock
//    because they return the old value;
//  * ONE commit handler per top-level transaction — registered on the
//    transaction's first use of the map, by the per-CPU state protocol all
//    three wrappers share (tcc::TxnStates, core/lockers.h) — performs
//    commit-time semantic conflict detection (violating readers
//    whose locks cover the written keys / the size, Table 2's "Write
//    Conflict" column), applies the buffered writes to the underlying map,
//    releases the transaction's locks and clears the buffers;
//  * ONE abort handler compensates: releases locks, clears buffers.
//
// Section 5.1 extensions included: isEmpty as a primitive with its own
// zero-crossing lock; put_blind/remove_blind variants that take no key
// *read* lock (so blind writers of one key commute); and an opt-in
// pessimistic detection mode that additionally dooms conflicting readers at
// operation time.
//
// Scope note (matches the paper): the collection's buffered semantic state
// is scoped to the *top-level* transaction.  Aborting an open-nested user
// transaction does not undo collection operations performed inside it —
// the paper's store buffers are updated by open-nested transactions and
// have the same property.
#pragma once

#include <string>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/lockers.h"
#include "jstd/interfaces.h"
#include "tm/runtime.h"

namespace tcc {

/// When write/read semantic conflicts are detected (paper Section 5.1).
enum class Detection {
  kOptimistic,   ///< commit-time only (the paper's choice)
  kPessimistic,  ///< additionally doom conflicting readers at operation time
};

/// `Iface` is the jstd interface this wrapper presents (jstd::Map by
/// default; TransactionalSortedMap instantiates with jstd::SortedMap so the
/// sorted wrapper is itself a drop-in SortedMap).
template <class K, class V, class Hash = std::hash<K>, class Eq = std::equal_to<K>,
          class Iface = jstd::Map<K, V>>
class TransactionalMap : public Iface {
 public:
  /// Takes ownership of the wrapped implementation.  The wrapper offers the
  /// same interface, so it is a drop-in replacement for `inner`.
  /// `trace_name` names this instance's semantic lock tables in txtrace
  /// output (e.g. "historyTable"); defaults to the class name.
  explicit TransactionalMap(std::unique_ptr<jstd::Map<K, V>> inner,
                            Detection detection = Detection::kOptimistic,
                            const char* trace_name = nullptr)
      : inner_(std::move(inner)), detection_(detection) {
    register_trace_names(trace_name != nullptr ? trace_name : "TransactionalMap");
  }

  // ---- jstd::Map interface (Table 1/2 semantics) ----

  std::optional<V> get(const K& key) const override {
    if (!transactional()) return inner_->get(key);
    return run([&](LocalState& ls) { return observed_value(ls, key); });
  }

  bool contains_key(const K& key) const override {
    if (!transactional()) return inner_->contains_key(key);
    return get(key).has_value();
  }

  std::optional<V> put(const K& key, const V& value) override {
    if (!transactional()) return inner_->put(key, value);
    return run([&](LocalState& ls) { return buffered_write(ls, key, &value); });
  }

  std::optional<V> remove(const K& key) override {
    if (!transactional()) return inner_->remove(key);
    return run([&](LocalState& ls) { return buffered_write(ls, key, nullptr); });
  }

  long size() const override {
    if (!transactional()) return inner_->size();
    return run([&](LocalState& ls) { return locked_size(ls, size_lockers_, ls.size_locked); });
  }

  /// Section 5.1: isEmpty as a PRIMITIVE with a dedicated lock that is only
  /// violated when the size crosses zero — so `if (!m.isEmpty()) m.put(..)`
  /// transactions commute, unlike the size()-derived version.
  bool is_empty() const override {
    if (!transactional()) return inner_->is_empty();
    return run(
        [&](LocalState& ls) { return locked_size(ls, empty_lockers_, ls.empty_locked) == 0; });
  }

  std::unique_ptr<jstd::MapIterator<K, V>> iterator() const override {
    if (!transactional()) return inner_->iterator();
    LocalState& ls = states_.current(first_use());
    return std::make_unique<Iter>(this, &ls);
  }

  // ---- Section 5.1 blind variants ----

  /// put that does NOT return (or read) the old value: takes no key
  /// read-lock, so blind writers of the same key never conflict with each
  /// other — the paper's map.put("LastModified", now) example.
  void put_blind(const K& key, const V& value) {
    if (!transactional()) {
      inner_->put(key, value);
      return;
    }
    run([&](LocalState& ls) { blind_write(ls, key, &value); });
  }

  /// remove that does not read/return the old value (no key read-lock).
  void remove_blind(const K& key) {
    if (!transactional()) {
      inner_->remove(key);
      return;
    }
    run([&](LocalState& ls) { blind_write(ls, key, nullptr); });
  }

  // ---- introspection (tests / TAPE-style analysis) ----

  const jstd::Map<K, V>& inner() const { return *inner_; }
  std::size_t locked_key_count() const { return key_lockers_.locked_key_count(); }
  std::size_t size_locker_count() const { return size_lockers_.size(); }
  std::size_t empty_locker_count() const { return empty_lockers_.size(); }

 protected:
  // One buffered effect per key (later operations overwrite the kind/value;
  // present_before is the committed-map fact observed under the key lock).
  struct Entry {
    enum Kind { kPut, kRemove } kind = kPut;
    V value{};
    std::optional<bool> present_before;  // nullopt until observed (blind ops)
    bool touched = false;

    /// Buffers a put of `*v`, or a remove when `v` is null.
    void buffer(const V* v) {
      touched = true;
      kind = v != nullptr ? kPut : kRemove;
      if (v != nullptr) value = *v;
    }
  };

  struct LocalState {
    atomos::TxnId id{};
    bool size_locked = false;
    bool empty_locked = false;
    bool first_locked = false;  // TransactionalSortedMap's endpoint locks
    bool last_locked = false;
    std::unordered_map<K, Entry, Hash, Eq> store;
    std::vector<K> key_locks;

    void clear() {
      store.clear();
      key_locks.clear();
      size_locked = false;
      empty_locked = false;
      first_locked = false;
      last_locked = false;
      id = atomos::TxnId{};
    }
  };

  /// Registers this map's one handler pair on a top-level transaction's
  /// first use of it (TxnStates::current).
  auto first_use() const {
    return [self = const_cast<TransactionalMap*>(this)](int cpu) {
      // Read-only transactions (empty store buffer) only release locks at
      // commit: pure cleanup, no token needed.
      atomos::Runtime::current().on_top_commit(
          self, [self, cpu] { self->commit_handler(cpu); },
          [self, cpu] { self->abort_handler(cpu); },
          [self, cpu] { return !self->states_[cpu].store.empty(); });
    };
  }

  /// Runs `op` on this CPU's state (TxnStates::run).
  template <class Op>
  auto run(Op&& op) const {
    return states_.run(first_use(), std::forward<Op>(op));
  }

  void lock_key(LocalState& ls, const K& key) const {
    if (key_lockers_.is_locked_by(key, ls.id)) return;
    key_lockers_.lock(key, ls.id);
    ls.key_locks.push_back(key);
  }

  /// Buffered value for `key`, if this transaction already wrote it.
  std::optional<std::optional<V>> buffered_lookup(LocalState& ls, const K& key) const {
    auto it = ls.store.find(key);
    if (it == ls.store.end() || !it->second.touched) return std::nullopt;
    if (it->second.kind == Entry::kPut) return std::optional<V>(it->second.value);
    return std::optional<V>(std::nullopt);  // buffered remove
  }

  /// The value this transaction observes for `key` (buffer, else locked
  /// read of the committed map).
  std::optional<V> observed_value(LocalState& ls, const K& key) const {
    if (auto hit = buffered_lookup(ls, key)) return *hit;
    return atomos::open_atomically([&] {
      charge_sem_op();
      lock_key(ls, key);
      return inner_->get(key);
    });
  }

  /// put (`value` set) or remove (null): returns the old value, read under
  /// the key lock, and buffers the write.
  std::optional<V> buffered_write(LocalState& ls, const K& key, const V* value) const {
    std::optional<V> old = observed_value(ls, key);
    Entry& e = ls.store[key];
    if (!e.touched) e.present_before = old.has_value();  // committed-map fact
    e.buffer(value);
    if (detection_ == Detection::kPessimistic) eager_detect(ls, key);
    return old;
  }

  /// put_blind (`value` set) or remove_blind (null): buffers the write
  /// without observing the key.
  void blind_write(LocalState& ls, const K& key, const V* value) const {
    ls.store[key].buffer(value);
    charge_sem_op();
    if (detection_ == Detection::kPessimistic) eager_detect(ls, key);
  }

  /// size() and is_empty(): the size this transaction observes, read while
  /// taking `lock` (its size or empty lock; `held` is its flag).
  long locked_size(LocalState& ls, LockerSet& lock, bool& held) const {
    resolve_all_blind(ls);
    return atomos::open_atomically([&] {
      charge_sem_op();
      lock.add(ls.id);
      held = true;
      return inner_->size() + delta(ls);
    });
  }

  /// Committed-map presence of `key`, observed under the key lock (stable
  /// until our commit: any writer of the key would violate us first).
  bool resolve_presence(LocalState& ls, const K& key) const {
    return atomos::open_atomically([&] {
      charge_sem_op();
      lock_key(ls, key);
      return inner_->contains_key(key);
    });
  }

  /// Fills in present_before for blind entries (needed before size()).
  void resolve_all_blind(LocalState& ls) const {
    for (auto& [key, e] : ls.store) {
      if (!e.present_before.has_value()) e.present_before = resolve_presence(ls, key);
    }
  }

  /// Net size change of the buffered operations (all presences resolved).
  long delta(const LocalState& ls) const {
    long d = 0;
    for (const auto& [key, e] : ls.store) {
      const bool before = e.present_before.value();
      if (e.kind == Entry::kPut && !before) ++d;
      if (e.kind == Entry::kRemove && before) --d;
    }
    return d;
  }

  /// Pessimistic mode: doom conflicting readers at operation time.
  void eager_detect(LocalState& ls, const K& key) const {
    key_lockers_.violate_holders(key, ls.id);
  }

  /// THE commit handler (Table 2 "Write Conflict" column): runs inside the
  /// commit token, as part of the committing transaction.
  virtual void commit_handler(int cpu) {
    LocalState& ls = states_[cpu];
    charge_sem_op(1 + ls.store.size());
    long applied_delta = 0;
    for (auto& [key, e] : ls.store) {
      if (!e.touched) continue;
      // Semantic conflict: every other reader of this key is doomed.
      key_lockers_.violate_holders(key, ls.id);
      if (e.kind == Entry::kPut) {
        if (!inner_->put(key, e.value).has_value()) ++applied_delta;
      } else {
        if (inner_->remove(key).has_value()) --applied_delta;
      }
    }
    if (applied_delta != 0) {
      size_lockers_.violate_all_except(ls.id);
      const long new_size = inner_->size();
      const bool was_empty = (new_size - applied_delta) == 0;
      const bool now_empty = new_size == 0;
      if (was_empty != now_empty) empty_lockers_.violate_all_except(ls.id);
    }
    release_and_clear(ls);
  }

  /// THE abort handler: pure compensation (paper Section 5 rules).
  virtual void abort_handler(int cpu) {
    LocalState& ls = states_[cpu];
    charge_sem_op(ls.key_locks.size() + 1);
    release_and_clear(ls);
  }

  void release_and_clear(LocalState& ls) {
    for (const K& k : ls.key_locks) key_lockers_.unlock(k, ls.id);
    if (ls.size_locked) size_lockers_.remove(ls.id);
    if (ls.empty_locked) empty_lockers_.remove(ls.id);
    ls.clear();
  }

  // ---- iterator: snapshot + merge with the store buffer (Section 3.1) ----

  class Iter final : public jstd::MapIterator<K, V> {
   public:
    Iter(const TransactionalMap* m, LocalState* ls) : m_(m), ls_(ls) {
      // Snapshot the underlying enumeration in ONE open-nested transaction
      // (idempotent under retry), then merge with the store buffer.
      atomos::open_atomically([&] {
        charge_sem_op();
        snapshot_.clear();
        for (auto it = m_->inner_->iterator(); it->has_next();) snapshot_.push_back(it->next());
      });
      for (const auto& [key, e] : ls_->store) {
        if (!e.touched || e.kind != Entry::kPut) continue;
        bool in_snapshot = false;
        for (const auto& [sk, sv] : snapshot_) {
          if (Eq{}(sk, key)) {
            in_snapshot = true;
            break;
          }
        }
        if (!in_snapshot) added_.emplace_back(key, e.value);
      }
      advance();
    }

    bool has_next() override {
      if (next_.has_value()) return true;
      // Observing exhaustion reveals the size: take the size lock (Table 2).
      if (!exhaust_locked_) {
        exhaust_locked_ = true;
        atomos::open_atomically([&] {
          charge_sem_op();
          m_->size_lockers_.add(ls_->id);
          ls_->size_locked = true;
        });
      }
      return false;
    }

    std::pair<K, V> next() override {
      auto out = *next_;
      advance();
      return out;
    }

   private:
    void advance() {
      next_.reset();
      while (pos_ < snapshot_.size()) {
        const K key = snapshot_[pos_].first;
        ++pos_;
        // The buffered value, else a re-read under the key lock (the
        // snapshot may predate a concurrent commit; the lock makes the
        // observation stable).  A buffered remove, or a key that vanished
        // since the snapshot (we serialize after its remover), is skipped.
        if (auto cur = m_->observed_value(*ls_, key)) {
          next_ = {key, *cur};
          return;
        }
      }
      if (apos_ < added_.size()) {
        next_ = added_[apos_++];
        return;
      }
    }

    const TransactionalMap* m_;
    LocalState* ls_;
    std::vector<std::pair<K, V>> snapshot_;
    std::vector<std::pair<K, V>> added_;
    std::size_t pos_ = 0;
    std::size_t apos_ = 0;
    std::optional<std::pair<K, V>> next_;
    bool exhaust_locked_ = false;
  };

  /// Names this instance's lock tables for txtrace (setup-time; no-op when
  /// no tracer is attached).  Table names follow the paper's Table 3 fields.
  void register_trace_names(const std::string& n) {
    if (auto* rt = atomos::Runtime::current_or_null()) {
      rt->trace_name_table(&key_lockers_, (n + ".key2lockers").c_str());
      rt->trace_name_table(&size_lockers_, (n + ".sizeLockers").c_str());
      rt->trace_name_table(&empty_lockers_, (n + ".emptyLockers").c_str());
    }
  }

  std::unique_ptr<jstd::Map<K, V>> inner_;
  Detection detection_;
  mutable KeyLockTable<K, Hash, Eq> key_lockers_;
  mutable LockerSet size_lockers_;
  mutable LockerSet empty_lockers_;
  mutable TxnStates<LocalState> states_;
};

}  // namespace tcc
