// tcc::TransactionalSortedMap — the paper's Section 3.2 contribution.
//
// Extends TransactionalMap for SortedMap implementations (e.g. a red-black
// TreeMap) with the Table 4/5 semantics:
//
//  * key-RANGE locks taken by ordered iteration (and grown as the iterator
//    advances, so they cover exactly the keys observed);
//  * FIRST/LAST endpoint locks taken by firstKey/lastKey and by iterators
//    that observe an endpoint (full iteration exhaustion = last-key
//    observation);
//  * commit-time detection extended accordingly: a put/remove violates key
//    lockers AND range lockers containing the key, and endpoint lockers
//    whenever the first/last key changes; size/empty handling is inherited.
//
// subMap/headMap/tailMap views collapse onto the range_iterator primitive
// (see jstd::SortedMap).  The sortedStoreBuffer of Table 6 is realized by
// sorting the store buffer on demand during merged iteration.  The
// per-transaction state, with its endpoint-lock flags, and its handler
// registration are the base map's (tcc::TxnStates).
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/txmap.h"

namespace tcc {

template <class K, class V, class Compare = std::less<K>,
          class Hash = std::hash<K>, class Eq = std::equal_to<K>>
class TransactionalSortedMap final
    : public TransactionalMap<K, V, Hash, Eq, jstd::SortedMap<K, V>> {
  using Base = TransactionalMap<K, V, Hash, Eq, jstd::SortedMap<K, V>>;
  using typename Base::Entry;
  using typename Base::LocalState;

 public:
  explicit TransactionalSortedMap(std::unique_ptr<jstd::SortedMap<K, V>> inner,
                                  Detection detection = Detection::kOptimistic,
                                  Compare cmp = Compare(),
                                  const char* trace_name = nullptr)
      : Base(std::move(inner), detection,
             trace_name != nullptr ? trace_name : "TransactionalSortedMap"),
        cmp_(cmp),
        range_lockers_(cmp) {
    // inner_ was constructed from a SortedMap, so the downcast is exact.
    sorted_ = static_cast<jstd::SortedMap<K, V>*>(this->inner_.get());
    const std::string n =
        trace_name != nullptr ? trace_name : "TransactionalSortedMap";
    if (auto* rt = atomos::Runtime::current_or_null()) {
      rt->trace_name_table(&range_lockers_, (n + ".rangeLockers").c_str());
      rt->trace_name_table(&first_lockers_, (n + ".firstLockers").c_str());
      rt->trace_name_table(&last_lockers_, (n + ".lastLockers").c_str());
    }
  }

  // ---- SortedMap interface (Table 5 read locks) ----

  std::optional<K> first_key() const override {
    if (!transactional()) return sorted_inner().first_key();
    return this->run([&](LocalState& ls) {
      return atomos::open_atomically([&] {
        charge_sem_op();
        first_lockers_.add(ls.id);
        ls.first_locked = true;
        return merged_first(ls);
      });
    });
  }

  std::optional<K> last_key() const override {
    if (!transactional()) return sorted_inner().last_key();
    return this->run([&](LocalState& ls) {
      return atomos::open_atomically([&] {
        charge_sem_op();
        last_lockers_.add(ls.id);
        ls.last_locked = true;
        return merged_last(ls);
      });
    });
  }

  /// The largest key below `key`, observed with a range lock on the gap
  /// [answer, key): only a put or remove inside it can change the answer.
  std::optional<K> last_key_before(const K& key) const override {
    if (!transactional()) return sorted_inner().last_key_before(key);
    return this->run([&](LocalState& ls) {
      return atomos::open_atomically([&] {
        charge_sem_op();
        std::optional<K> committed = sorted_inner().last_key_before(key);
        // Merge with buffer: largest buffered put < key; skip buffered removes.
        while (committed.has_value() && buffered_removed(ls, *committed)) {
          committed = sorted_inner().last_key_before(*committed);
        }
        std::optional<K> best = committed;
        for (const auto& [k, e] : ls.store) {
          if (!e.touched || e.kind != Entry::kPut) continue;
          if (cmp_(k, key) && (!best.has_value() || cmp_(*best, k))) best = k;
        }
        range_lockers_.lock(best, key, ls.id, /*to_closed=*/false);
        return best;
      });
    });
  }

  std::unique_ptr<jstd::MapIterator<K, V>> range_iterator(
      const std::optional<K>& from, const std::optional<K>& to) const override {
    if (!transactional()) return sorted_inner().range_iterator(from, to);
    LocalState& ls = this->states_.current(this->first_use());
    return std::make_unique<SortedIter>(this, &ls, from, to);
  }

  std::unique_ptr<jstd::MapIterator<K, V>> iterator() const override {
    return range_iterator(std::nullopt, std::nullopt);
  }

  // ---- introspection ----
  std::size_t range_lock_count() const { return range_lockers_.size(); }
  std::size_t first_locker_count() const { return first_lockers_.size(); }
  std::size_t last_locker_count() const { return last_lockers_.size(); }

 protected:
  /// Table 5 "Write Conflict" column, extending the Map handler: range and
  /// endpoint conflicts in addition to key/size/empty conflicts.
  void commit_handler(int cpu) override {
    LocalState& ls = this->states_[cpu];
    charge_sem_op(2 + ls.store.size());
    const std::optional<K> old_first = sorted_inner().first_key();
    const std::optional<K> old_last = sorted_inner().last_key();
    long applied_delta = 0;
    for (auto& [key, e] : ls.store) {
      if (!e.touched) continue;
      this->key_lockers_.violate_holders(key, ls.id);
      range_lockers_.violate_containing(key, ls.id);
      if (e.kind == Entry::kPut) {
        if (!this->inner_->put(key, e.value).has_value()) ++applied_delta;
      } else {
        if (this->inner_->remove(key).has_value()) --applied_delta;
      }
    }
    const std::optional<K> new_first = sorted_inner().first_key();
    const std::optional<K> new_last = sorted_inner().last_key();
    if (!same_key(old_first, new_first)) first_lockers_.violate_all_except(ls.id);
    if (!same_key(old_last, new_last)) last_lockers_.violate_all_except(ls.id);
    if (applied_delta != 0) {
      this->size_lockers_.violate_all_except(ls.id);
      const long new_size = this->inner_->size();
      if (((new_size - applied_delta) == 0) != (new_size == 0))
        this->empty_lockers_.violate_all_except(ls.id);
    }
    release_sorted(ls);
    this->release_and_clear(ls);
  }

  void abort_handler(int cpu) override {
    LocalState& ls = this->states_[cpu];
    charge_sem_op(ls.key_locks.size() + 2);
    release_sorted(ls);
    this->release_and_clear(ls);
  }

 private:
  jstd::SortedMap<K, V>& sorted_inner() const { return *sorted_; }

  bool same_key(const std::optional<K>& a, const std::optional<K>& b) const {
    if (a.has_value() != b.has_value()) return false;
    if (!a.has_value()) return true;
    return !cmp_(*a, *b) && !cmp_(*b, *a);
  }

  bool buffered_removed(LocalState& ls, const K& key) const {
    auto it = ls.store.find(key);
    return it != ls.store.end() && it->second.touched && it->second.kind == Entry::kRemove;
  }

  std::optional<K> merged_first(LocalState& ls) const {
    // Committed first, skipping keys this transaction buffered as removed.
    std::optional<K> committed = sorted_inner().first_key();
    while (committed.has_value() && buffered_removed(ls, *committed)) {
      auto it = sorted_inner().range_iterator(*committed, std::nullopt);
      // skip the key itself, then take the next committed key
      std::optional<K> next;
      if (it->has_next()) {
        it->next();
        if (it->has_next()) next = it->next().first;
      }
      committed = next;
    }
    std::optional<K> best = committed;
    for (const auto& [k, e] : ls.store) {
      if (!e.touched || e.kind != Entry::kPut) continue;
      if (!best.has_value() || cmp_(k, *best)) best = k;
    }
    return best;
  }

  std::optional<K> merged_last(LocalState& ls) const {
    std::optional<K> committed = sorted_inner().last_key();
    while (committed.has_value() && buffered_removed(ls, *committed)) {
      committed = sorted_inner().last_key_before(*committed);
    }
    std::optional<K> best = committed;
    for (const auto& [k, e] : ls.store) {
      if (!e.touched || e.kind != Entry::kPut) continue;
      if (!best.has_value() || cmp_(*best, k)) best = k;
    }
    return best;
  }

  /// Releases the range and endpoint locks; the endpoint flags guard the
  /// removals, because a release that finds nothing to release is a
  /// protocol violation the checked build and txmc flag.
  void release_sorted(LocalState& ls) {
    range_lockers_.unlock_all(ls.id);
    if (ls.first_locked) first_lockers_.remove(ls.id);
    if (ls.last_locked) last_lockers_.remove(ls.id);
  }

  /// Ordered merged iterator over committed range ∩ buffer, growing a range
  /// lock to cover exactly the keys observed (Table 5).
  class SortedIter final : public jstd::MapIterator<K, V> {
   public:
    SortedIter(const TransactionalSortedMap* m, LocalState* ls,
               std::optional<K> from, std::optional<K> to)
        : m_(m), ls_(ls), from_(std::move(from)), to_(std::move(to)) {
      // Snapshot the committed range in one open-nested transaction.
      atomos::open_atomically([&] {
        charge_sem_op();
        snapshot_.clear();
        for (auto it = m_->sorted_inner().range_iterator(from_, to_); it->has_next();)
          snapshot_.push_back(it->next());
      });
      // Sorted view of buffered puts within the range (Table 6's
      // sortedStoreBuffer).
      for (const auto& [k, e] : ls_->store) {
        if (!e.touched || e.kind != Entry::kPut) continue;
        if (from_.has_value() && m_->cmp_(k, *from_)) continue;
        if (to_.has_value() && !m_->cmp_(k, *to_)) continue;
        buffered_.emplace_back(k, e.value);
      }
      std::sort(buffered_.begin(), buffered_.end(),
                [&](const auto& a, const auto& b) { return m_->cmp_(a.first, b.first); });
      // Start an (initially empty) growing range lock at `from`.
      atomos::open_atomically([&] {
        charge_sem_op();
        handle_ = m_->range_lockers_.lock(from_, from_, ls_->id, /*to_closed=*/false);
      });
      advance();
    }

    bool has_next() override {
      if (next_.has_value()) return true;
      if (!end_locked_) {
        end_locked_ = true;
        atomos::open_atomically([&] {
          charge_sem_op();
          if (to_.has_value()) {
            // Bounded view: exhaustion is covered by the range lock [from, to).
            m_->range_lockers_.extend(handle_, to_, /*to_closed=*/false);
          } else {
            // Unbounded: exhaustion observes the LAST key (Table 4/5).
            m_->range_lockers_.extend(handle_, std::nullopt, false);
            m_->last_lockers_.add(ls_->id);
            ls_->last_locked = true;
          }
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
      for (;;) {
        const bool have_s = pos_ < snapshot_.size();
        const bool have_b = bpos_ < buffered_.size();
        if (!have_s && !have_b) return;
        bool take_buffered;
        if (have_s && have_b) {
          if (m_->cmp_(buffered_[bpos_].first, snapshot_[pos_].first)) {
            take_buffered = true;
          } else if (m_->cmp_(snapshot_[pos_].first, buffered_[bpos_].first)) {
            take_buffered = false;
          } else {  // same key: buffer overrides the committed value
            ++pos_;
            take_buffered = true;
          }
        } else {
          take_buffered = have_b;
        }
        if (take_buffered) {
          const auto& [k, v] = buffered_[bpos_++];
          grow_lock(k);
          next_ = {k, v};
          return;
        }
        const K k = snapshot_[pos_].first;
        ++pos_;
        if (m_->buffered_removed(*ls_, k)) continue;
        if (auto hit = m_->buffered_lookup(*ls_, k)) {  // buffered overwrite
          grow_lock(k);
          next_ = {k, **hit};
          return;
        }
        // Extend the lock through k, then re-read under it (the snapshot may
        // predate a concurrent commit).
        auto cur = atomos::open_atomically([&] {
          charge_sem_op();
          m_->range_lockers_.extend(handle_, k, /*to_closed=*/true);
          return m_->inner_->get(k);
        });
        if (!cur.has_value()) continue;  // vanished: serialize after remover
        next_ = {k, *cur};
        return;
      }
    }

    void grow_lock(const K& through) {
      atomos::open_atomically([&] {
        charge_sem_op();
        m_->range_lockers_.extend(handle_, through, /*to_closed=*/true);
      });
    }

    const TransactionalSortedMap* m_;
    LocalState* ls_;
    std::optional<K> from_, to_;
    std::vector<std::pair<K, V>> snapshot_;
    std::vector<std::pair<K, V>> buffered_;
    std::size_t pos_ = 0, bpos_ = 0;
    typename RangeLockTable<K, Compare>::Handle handle_;
    std::optional<std::pair<K, V>> next_;
    bool end_locked_ = false;
  };

  Compare cmp_;
  jstd::SortedMap<K, V>* sorted_ = nullptr;
  mutable RangeLockTable<K, Compare> range_lockers_;
  mutable LockerSet first_lockers_;
  mutable LockerSet last_lockers_;
};

}  // namespace tcc
