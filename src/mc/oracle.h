// txmc serializability oracle.
//
// Records each transaction attempt's SEMANTIC operations — collection ops
// with their observed results, open-nested eager effects, semantic-lock
// acquire/release traffic — and, after the run, checks the committed
// history against the collections' sequential specifications:
//
//  * map tables: committed writers are replayed strictly in commit (flush)
//    order against a model map; every observation a writer made (old values
//    returned by put/remove, get results, size/emptiness, sorted-map
//    endpoints) must match the model at its serialization point.  Committed
//    READ-ONLY transactions commit token-free and may legally serialize
//    anywhere between their first observation and their flush, so they pass
//    if ANY single point in that window explains every observation.
//  * queue tables: the paper's queue deliberately relaxes isolation
//    (take/poll remove eagerly; order is not preserved), so commit-order
//    replay would reject legal histories.  Instead the oracle keeps a
//    timestamped BAG model — committed puts appear at their flush, removals
//    at their operation, aborted removals restored at the abort — and
//    checks conservation (final bag == actual final queue), membership of
//    every polled element, and that every committed emptiness observation
//    has a moment in its [observation, flush] window where the bag was
//    truly empty.
//  * semantic locks: the shared ledger (tm/lock_ledger.h) judges each
//    lock-table event and each settle as it arrives; a settle with locks
//    left is a leak, and an empty release it finds neither owed to a prune
//    nor stale is a double release.
//
// Violations carry an anomaly class (mirrors the seeded-mutant corpus) and
// a human-readable detail line.  The oracle itself is schedule-agnostic:
// the explorer attaches the replay string of the run that produced them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tm/lock_ledger.h"
#include "tm/runtime.h"

namespace mc {

enum class Anomaly {
  kNotSerializable = 0,    ///< no serialization point explains the observations
  kLostUpdate,             ///< a RMW overwrote a concurrent committed update it never saw
  kLostSemanticLock,       ///< a protected observation went stale without a violation
  kNonCommutingOpen,       ///< an open-nested eager effect leaked pre-commit state
  kCompensationInversion,  ///< an abort's compensation did not restore the collection
  kFinalStateDivergence,   ///< final collection state differs from the committed history
  kLockLeak,               ///< a settled transaction still holds semantic locks
  kDoubleRelease,          ///< an unsettled transaction released a lock it no longer held
};

const char* anomaly_name(Anomaly a);

struct Violation {
  Anomaly kind;
  std::string detail;
};

/// One recorded semantic operation.  Keys and values are `long` — the whole
/// litmus corpus works over Map<long,long> / Queue<long>, which keeps the
/// oracle concrete without templates.
struct Op {
  enum class Kind {
    kGet,       // key; observed (present/value)
    kPut,       // key, value; observed = old value unless blind
    kRemove,    // key; observed = old value unless blind
    kSize,      // observed = size
    kIsEmpty,   // observed = 0/1
    kFirstKey,  // sorted map; observed (present/value = key)
    kLastKey,   // sorted map; observed
    kQPut,      // value (element)
    kQPollHit,  // observed = element removed
    kQPollMiss, // emptiness observation (takes the empty lock)
    kQTakeHit,  // observed = element removed (no emptiness semantics on miss)
    kQPeekHit,  // observed = element seen, not removed
    kQPeekMiss, // emptiness observation
  };
  Kind kind;
  const void* table = nullptr;
  long key = 0;
  long value = 0;                // put value / queue element
  bool observed_present = false; // get/put/remove/peek/first/last observation
  long observed = 0;             // observed value / size / emptiness(0,1)
  bool blind = false;            // blind put/remove: no old-value observation
  bool open_child = false;       // applied eagerly through an open-nested child
  bool cancelled = false;        // queue put consumed by the same txn's poll
  std::uint64_t event = 0;       // global order stamp (assigned by record())
};

/// One transaction attempt (committed or aborted), in program order.
struct TxnRec {
  int cpu = -1;
  atomos::TxnId id{};
  bool committed = false;
  std::uint64_t begin_event = 0;
  std::uint64_t end_event = 0;  // commit-flush or abort stamp
  std::vector<Op> ops;
};

class Oracle {
 public:
  // ---- table registry + initial state (litmus setup) ----
  void register_map(const void* table, std::string name,
                    std::vector<std::pair<long, long>> initial, bool sorted = false);
  void register_queue(const void* table, std::string name, std::vector<long> initial);
  /// Names an auxiliary structure (a semantic-lock table) for reporting;
  /// it takes part in the lock ledger but not in history replay.
  void register_name(const void* table, std::string name);

  // ---- attempt lifecycle (called from worker fibers) ----
  void attempt_begin(int cpu, const atomos::TxnId& id);
  /// Records `op` for the cpu's pending attempt, stamping op.event.
  /// Returns the op's index within the attempt (for cancel()).
  std::size_t record(int cpu, Op op);
  /// Draws a fresh event stamp.  Wrappers pre-stamp observations whose
  /// semantic lock is only taken AFTER the observation itself (queue
  /// emptiness): the real observation happened before the stamp that
  /// record() would assign, and the window check must not start late.
  std::uint64_t stamp();
  void cancel(int cpu, std::size_t op_index);
  void flush_commit(int cpu);
  void flush_abort(int cpu);

  // ---- semantic-lock events (forwarded by the controller) ----
  /// Feeds one lock-table or settle event to the lock ledger and records
  /// the leak or double release it finds.
  void on_lock_event(const atomos::SemEvent& e);

  // ---- final states (litmus finish, outside the run) ----
  void set_final_map(const void* table, std::vector<std::pair<long, long>> entries);
  void set_final_queue(const void* table, std::vector<long> elems);

  /// Checks the recorded history.  Stable: may be called repeatedly.
  std::vector<Violation> check() const;

  const std::vector<TxnRec>& history() const { return history_; }
  std::string table_name(const void* table) const;

 private:
  struct TableInfo {
    enum class Kind { kMap, kSortedMap, kQueue } kind;
    std::string name;
    std::vector<std::pair<long, long>> initial_map;
    std::vector<long> initial_queue;
    std::vector<std::pair<long, long>> final_map;
    std::vector<long> final_queue;
    bool final_set = false;
  };

  struct Pending {
    bool active = false;
    TxnRec rec;
  };

  std::uint64_t next_event() { return ++event_counter_; }

  void check_maps(std::vector<Violation>& out) const;
  void check_queues(std::vector<Violation>& out) const;

  std::uint64_t event_counter_ = 0;
  std::unordered_map<const void*, TableInfo> tables_;
  std::unordered_map<const void*, std::string> names_;  // auxiliary structures
  std::vector<Pending> pending_;  // indexed by cpu (grown on demand)
  std::vector<TxnRec> history_;   // finished attempts, in finish order
  // Committed recs' positions in history_, one slot per cpu: flush_commit
  // fills it, a subsequent flush_abort of the SAME attempt (commit handler
  // escalated into an abort after the oracle's flush already ran) demotes
  // the rec to aborted in place.
  std::vector<std::optional<std::size_t>> last_commit_;
  atomos::LockLedger locks_;
  std::vector<Violation> eager_violations_;  // lock-rule breaches, found mid-run
};

}  // namespace mc
