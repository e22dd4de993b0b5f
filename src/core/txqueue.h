// tcc::TransactionalQueue — the paper's Section 3.3 reduced-isolation
// transactional work queue (Tables 7-9).
//
// Wraps a jstd::Queue behind the narrow Channel interface.  Isolation is
// deliberately relaxed to maximize concurrency:
//
//  * take()/poll() remove an element from the underlying queue EAGERLY, in
//    an open-nested transaction (other transactions can immediately see it
//    gone — the Delaunay work-queue pattern); the element is recorded in a
//    removeBuffer and COMPENSATED (pushed back) if the parent aborts;
//  * put() buffers the element in an addBuffer, applied at commit, so
//    speculative work items never become visible (the failure mode open
//    nesting alone suffers from, per Kulkarni et al.);
//  * the only semantic conflict (Table 7): observing EMPTINESS via
//    peek()/poll() returning nothing takes an empty lock, and a committing
//    put() that makes the queue non-empty violates those observers;
//  * size() observes the exact element count and takes a size lock (the
//    sizeLockers pattern of Table 3 applied to the queue): any committed
//    put, any eager take/poll removal, and any abort-time put-back changes
//    the count and violates every other size observer.  Workers that only
//    need "is there work?" should use take()/try_dequeue(), which observe
//    nothing and therefore conflict with nothing.
//
// Because strict FIFO order is not maintained across transactions, put/take
// pairs never conflict with each other (Table 7's blank cells).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/lockers.h"
#include "jstd/interfaces.h"
#include "tm/runtime.h"

namespace tcc {

template <class T>
class TransactionalQueue : public jstd::Channel<T> {
 public:
  explicit TransactionalQueue(std::unique_ptr<jstd::Queue<T>> inner,
                              const char* trace_name = nullptr)
      : inner_(std::move(inner)) {
    if (auto* rt = atomos::Runtime::current_or_null()) {
      const std::string n =
          trace_name != nullptr ? trace_name : "TransactionalQueue";
      rt->trace_name_table(&empty_lockers_, (n + ".emptyLockers").c_str());
      rt->trace_name_table(&size_lockers_, (n + ".sizeLockers").c_str());
    }
  }

  /// Enqueues `item` when the surrounding transaction commits (buffered in
  /// the addBuffer until then; visible to this transaction's own polls).
  void put(const T& item) override {
    if (!transactional()) {
      inner_->put(item);
      return;
    }
    run([&](LocalState& ls) {
      charge_sem_op();
      ls.add_buffer.push_back(item);
    });
  }

  /// Dequeues an element if one is available.  The removal is applied to
  /// the shared queue IMMEDIATELY (reduced isolation); it is returned to
  /// the queue if this transaction aborts.  An empty answer takes the empty
  /// lock (Table 8), so a committing producer will violate us.
  std::optional<T> poll() override {
    if (!transactional()) return inner_->poll();
    return run([&](LocalState& ls) {
      std::optional<T> got = dequeue(ls);
      if (!got.has_value()) observe_empty(ls);
      return got;
    });
  }

  /// Dequeues like poll() but does NOT register an emptiness observation —
  /// the Table 7 put/take row: transactions confined to put and take can
  /// never conflict.  Callers must treat "no element" as retry-later, not
  /// as a serializable fact.
  std::optional<T> take() {
    if (!transactional()) return inner_->poll();
    return run([&](LocalState& ls) { return dequeue(ls); });
  }

  /// Worker-loop alias for take(): the non-blocking dequeue a request-serving
  /// loop wants.  A nullopt means "nothing right now, retry later" and is
  /// NOT a serializable emptiness observation (Table 7: put/take commute).
  std::optional<T> try_dequeue() { return take(); }

  /// Observes the exact element count (own pending puts included, eagerly
  /// taken elements excluded — they are already gone from the shared queue).
  /// The observation takes a size lock: committed puts, other transactions'
  /// eager removals and abort-time put-backs all change the count and
  /// violate us.  This is the paper's sizeLockers rule (Table 3) applied to
  /// the queue; prefer take()/try_dequeue() when emptiness-for-retry is all
  /// the caller needs.
  long size() const {
    if (!transactional()) return inner_->size();
    return run([&](LocalState& ls) {
      charge_sem_op();
      const long shared = atomos::open_atomically([&] {
        charge_sem_op();
        size_lockers_.add(ls.id);
        ls.size_locked = true;
        return inner_->size();
      });
      return shared + static_cast<long>(ls.add_buffer.size());
    });
  }

  /// Observes the head without removing it; observing emptiness takes the
  /// empty lock (Table 8's only peek rule).
  std::optional<T> peek() const override {
    if (!transactional()) return inner_->peek();
    return run([&](LocalState& ls) -> std::optional<T> {
      charge_sem_op();
      auto got = atomos::open_atomically([&] { return inner_->peek(); });
      if (got.has_value()) return got;
      if (!ls.add_buffer.empty()) return ls.add_buffer.front();
      observe_empty(ls);
      return std::nullopt;
    });
  }

  // ---- introspection (tests) ----
  const jstd::Queue<T>& inner() const { return *inner_; }
  std::size_t empty_locker_count() const { return empty_lockers_.size(); }
  std::size_t size_locker_count() const { return size_lockers_.size(); }

 protected:
  // Subclassable (protected state and run(), virtual handlers) so a litmus
  // mutant (mc::LossyQueue) can override exactly one behavior; production
  // code has no reason to subclass.
  struct LocalState {
    atomos::TxnId id{};
    bool empty_locked = false;
    bool size_locked = false;
    std::deque<T> add_buffer;     // Table 9: addBuffer
    std::vector<T> remove_buffer; // Table 9: removeBuffer

    void clear() {
      add_buffer.clear();
      remove_buffer.clear();
      empty_locked = false;
      size_locked = false;
      id = atomos::TxnId{};
    }
  };

  /// Registers this queue's one handler pair on a top-level transaction's
  /// first use of it (TxnStates::current).
  auto first_use() const {
    return [self = const_cast<TransactionalQueue*>(this)](int cpu) {
      // Only transactions with pending puts need the token at commit.
      atomos::Runtime::current().on_top_commit(
          self, [self, cpu] { self->commit_handler(cpu); },
          [self, cpu] { self->abort_handler(cpu); },
          [self, cpu] { return !self->states_[cpu].add_buffer.empty(); });
    };
  }

  /// Runs `op` on this CPU's state (TxnStates::run).
  template <class Op>
  auto run(Op&& op) const {
    return states_.run(first_use(), std::forward<Op>(op));
  }

  /// poll() and take(): removes the head eagerly (compensated on abort),
  /// else consumes this transaction's own oldest pending put.
  std::optional<T> dequeue(LocalState& ls) const {
    charge_sem_op();
    auto got = atomos::open_atomically([&] { return eager_remove(ls); });
    if (got.has_value()) {
      ls.remove_buffer.push_back(*got);
      return got;
    }
    if (ls.add_buffer.empty()) return std::nullopt;
    T item = ls.add_buffer.front();
    ls.add_buffer.pop_front();
    return item;
  }

  /// poll() and peek() found nothing: the empty observation takes the empty
  /// lock (Table 8), so a committing producer violates us.
  void observe_empty(LocalState& ls) const {
    atomos::open_atomically([&] {
      charge_sem_op();
      empty_lockers_.add(ls.id);
      ls.empty_locked = true;
    });
  }

  /// Inner-queue removal, run inside an open-nested child.  A successful
  /// removal changes the observable element count immediately (reduced
  /// isolation), so every OTHER size observer is violated on the spot —
  /// unlike puts, whose size effect only exists at commit.
  std::optional<T> eager_remove(LocalState& ls) const {
    auto got = inner_->poll();
    if (got.has_value() && !size_lockers_.empty()) {
      charge_sem_op();
      size_lockers_.violate_all_except(ls.id);
    }
    return got;
  }

  /// Applies the addBuffer; a producer making an empty queue non-empty
  /// violates every emptiness observer (Table 8: put "if now non-empty"),
  /// and any applied put changes the count, violating size observers.
  virtual void commit_handler(int cpu) {
    LocalState& ls = states_[cpu];
    charge_sem_op(ls.add_buffer.size() + 1);
    if (!ls.add_buffer.empty()) {
      if (inner_->is_empty()) empty_lockers_.violate_all_except(ls.id);
      size_lockers_.violate_all_except(ls.id);
      for (const T& item : ls.add_buffer) inner_->put(item);
    }
    release_and_clear(ls);
  }

  /// Compensation: eagerly removed elements go back (order not preserved —
  /// the queue deliberately keeps no strict ordering across transactions).
  virtual void abort_handler(int cpu) {
    LocalState& ls = states_[cpu];
    charge_sem_op(ls.remove_buffer.size() + 1);
    if (!ls.remove_buffer.empty()) {
      atomos::open_atomically([&] {
        const bool was_empty = inner_->is_empty();
        for (const T& item : ls.remove_buffer) inner_->put(item);
        if (was_empty) empty_lockers_.violate_all_except(ls.id);
        size_lockers_.violate_all_except(ls.id);  // the count changed back
      });
    }
    release_and_clear(ls);
  }

  void release_and_clear(LocalState& ls) {
    if (ls.empty_locked) empty_lockers_.remove(ls.id);
    if (ls.size_locked) size_lockers_.remove(ls.id);
    ls.clear();
  }

  std::unique_ptr<jstd::Queue<T>> inner_;
  mutable LockerSet empty_lockers_;
  mutable LockerSet size_lockers_;
  mutable TxnStates<LocalState> states_;
};

}  // namespace tcc
