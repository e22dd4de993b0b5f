// The semantic-lock ledger: which locks each top-level transaction holds.
//
// One implementation behind both checkers of the lock discipline.  The
// TXCC_CHECKED auditor (tm/audit.cpp) settles an owner when its transaction
// finishes and reports what it still held; the txmc oracle (mc/oracle.cpp)
// reports every owner still holding locks after the run.  Both feed it the
// lock-table events of the semantic layer.  Each keeps its own liveness test
// for a release that found nothing to release (a stale prune or a double
// release) and its own report text.  Compiled in every build: txmc runs in
// Release, where the auditor compiles to nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "tm/runtime.h"

namespace atomos {

class LockLedger {
 public:
  /// What one owner holds: `locks` acquires not yet released, across `sets`
  /// locker sets, of which `example` is one.
  struct Held {
    long locks = 0;
    std::size_t sets = 0;
    const void* example = nullptr;
  };

  /// Applies one lock-table event.  kAcquire counts one more lock of e.owner
  /// in e.set, kRelease one fewer, and kReleaseAll drops all of them; a
  /// release with no entry is a no-op.  Every other kind leaves the ledger
  /// alone, kPrune included: conflict detection prunes only owners that are
  /// no longer live, and a settled owner's entry is either gone already (the
  /// auditor settles at finish) or the evidence of a leak (the oracle).
  void apply(const SemEvent& e) {
    switch (e.kind) {
      case SemEvent::Kind::kAcquire:
        if (e.owner.cpu >= 0) held_[e.owner][e.set]++;
        break;
      case SemEvent::Kind::kRelease:
      case SemEvent::Kind::kReleaseAll: {
        auto it = held_.find(e.owner);
        if (it == held_.end()) return;
        auto jt = it->second.find(e.set);
        if (jt == it->second.end()) return;
        if (e.kind == SemEvent::Kind::kReleaseAll || --jt->second <= 0) it->second.erase(jt);
        if (it->second.empty()) held_.erase(it);
        break;
      }
      default:
        break;
    }
  }

  /// Removes `owner`'s entry and returns what it still held, if anything.
  std::optional<Held> settle(const TxnId& owner) {
    auto it = held_.find(owner);
    if (it == held_.end()) return std::nullopt;
    const Held h = summarize(it->second);
    held_.erase(it);
    return h;
  }

  /// Calls f(owner, held) for every owner that still holds a lock.
  template <class F>
  void for_each(F&& f) const {
    for (const auto& [owner, sets] : held_) f(owner, summarize(sets));
  }

  void clear() { held_.clear(); }

 private:
  using Sets = std::unordered_map<const void*, long>;  // set -> live acquires

  struct OwnerHash {
    std::size_t operator()(const TxnId& id) const noexcept {
      return std::hash<std::uint64_t>{}(id.incarnation * 1000003u +
                                        static_cast<std::uint64_t>(id.cpu));
    }
  };

  static Held summarize(const Sets& sets) {
    Held h{0, sets.size(), sets.begin()->first};
    for (const auto& [set, n] : sets) h.locks += n;
    return h;
  }

  std::unordered_map<TxnId, Sets, OwnerHash> held_;  // never holds an empty Sets
};

}  // namespace atomos
