// The semantic-lock ledger: the one judge of the lock rule.
//
// A collection takes semantic locks for a top-level transaction and
// releases them in its commit/abort handler pair (paper S4-5).  Both
// checkers of that rule, the TXCC_CHECKED auditor (tm/audit.cpp) and the
// txmc oracle (mc/oracle.cpp), feed this ledger every semantic-layer event
// and only word its verdicts.  Compiled in every build: txmc runs in
// Release, where the auditor compiles to nothing.
//
// The rule is exact for every owner that ever held a lock:
//  * an owner's entry lives from its first acquire to its settle (kSettle:
//    its commit handlers or its compensations have run), even when empty;
//  * a settle with locks left is a leak;
//  * a prune (conflict detection dropping a lock whose owner violate() finds
//    not live, as an owner running its compensation is) of an owner that
//    still has an entry drops that lock and owes the owner one empty release;
//  * an empty release (kReleaseNoop) is a double release unless it is owed,
//    or the owner has no entry and its incarnation is at or below its CPU's
//    settled watermark (a stale release of a settled owner).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tm/runtime.h"

namespace atomos {

class LockLedger {
 public:
  /// A breach of the lock rule.
  struct Finding {
    enum class Kind { kLeak, kDoubleRelease } kind;
    TxnId owner;
    /// kLeak: one of the sets still held.  kDoubleRelease: the set released.
    const void* set;
    long locks = 0;        ///< kLeak: locks still held at the settle
    std::size_t sets = 0;  ///< kLeak: across this many sets
  };

  /// Applies one semantic-layer event and returns the breach it completes,
  /// if any.  Violations leave the ledger alone.
  std::optional<Finding> apply(const SemEvent& e) {
    using Kind = SemEvent::Kind;
    if (e.owner.cpu < 0) return std::nullopt;  // no transaction owns it
    switch (e.kind) {
      case Kind::kAcquire:
        owners_[e.owner].held[e.set]++;
        break;
      case Kind::kRelease:
      case Kind::kReleaseAll:
      case Kind::kPrune: {
        auto it = owners_.find(e.owner);
        if (it == owners_.end()) break;  // settled, or never held: nothing to drop
        Owner& o = it->second;
        if (e.kind == Kind::kPrune) ++o.owed;
        auto jt = o.held.find(e.set);
        if (jt != o.held.end() && (e.kind == Kind::kReleaseAll || --jt->second <= 0)) {
          o.held.erase(jt);
        }
        break;
      }
      case Kind::kReleaseNoop: {
        auto it = owners_.find(e.owner);
        if (it == owners_.end()) {
          if (settled(e.owner)) break;  // a stale release of a settled owner
        } else if (it->second.owed > 0) {
          --it->second.owed;  // the release a prune already made
          break;
        }
        return Finding{Finding::Kind::kDoubleRelease, e.owner, e.set};
      }
      case Kind::kSettle: {
        const auto cpu = static_cast<std::size_t>(e.owner.cpu);
        if (settled_upto_.size() <= cpu) settled_upto_.resize(cpu + 1, 0);
        settled_upto_[cpu] = std::max(settled_upto_[cpu], e.owner.incarnation);
        auto it = owners_.find(e.owner);
        if (it == owners_.end()) break;
        const Sets held = std::move(it->second.held);
        owners_.erase(it);
        if (held.empty()) break;
        Finding f{Finding::Kind::kLeak, e.owner, held.begin()->first, 0, held.size()};
        for (const auto& [set, n] : held) f.locks += n;
        return f;
      }
      case Kind::kViolation:
        break;
    }
    return std::nullopt;
  }

  void clear() {
    owners_.clear();
    settled_upto_.clear();
  }

 private:
  using Sets = std::unordered_map<const void*, long>;  // set -> live acquires

  struct Owner {
    Sets held;     // may be empty: the entry lasts until the settle
    int owed = 0;  // prunes whose empty release has not come yet
  };

  struct OwnerHash {
    std::size_t operator()(const TxnId& id) const noexcept {
      return std::hash<std::uint64_t>{}(id.incarnation * 1000003u +
                                        static_cast<std::uint64_t>(id.cpu));
    }
  };

  bool settled(const TxnId& id) const {
    const auto cpu = static_cast<std::size_t>(id.cpu);
    return cpu < settled_upto_.size() && id.incarnation <= settled_upto_[cpu];
  }

  std::unordered_map<TxnId, Owner, OwnerHash> owners_;
  // Highest settled incarnation per CPU.
  std::vector<std::uint64_t> settled_upto_;
};

}  // namespace atomos
