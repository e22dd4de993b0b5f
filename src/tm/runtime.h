// Atomos/TCC-style transactional memory runtime on top of the CMP simulator.
//
// Provides the transactional semantics the paper enumerates in Section 4 as
// prerequisites for transactional collection classes:
//
//  * flattened closed nesting: an `atomically` inside a transaction runs
//    inline, as part of the enclosing transaction, so a violation restarts
//    that whole transaction and a user exception caught around the block
//    leaves the block's effects in place, as for any block of code,
//  * open-nested transactions (child commits before the parent; its read and
//    write dependencies are NOT merged into the parent),
//  * commit and abort handlers registered at the current nesting level
//    (moved to the parent on open-nested commit; an aborted child runs its
//    abort handlers and drops its commit handlers; commit handlers run
//    inside the commit, abort handlers after rollback),
//  * program-directed transaction abort: a transaction can obtain a stable
//    TxnId for its top-level transaction, store it in a semantic lock, and a
//    later committer can violate() that id.
//
// Conflict detection is lazy (TCC): speculative writes are buffered; at
// commit the writer acquires the global commit token, broadcasts its write
// set, and flags every other in-flight transaction that has read one of the
// written cache lines.  Flagged transactions retry: the top-level
// transaction, or just the open-nested child whose read caused the
// conflict.  How the violation reaches the retry loop depends on where the
// flag is seen.  work(), the leaf poll, returns it as a bool: the body
// returns to its atomically/open_atomically boundary, and the retry loop
// takes the violation from there.  At commit, after the body has returned,
// commit_txn hands it back as a value.  Either way run_txn rolls back
// without a C++ unwind; it throws only when the doomed transaction is an
// enclosing one, or when the body that returned was a nested atomically,
// whose enclosing body must not run on.  The other mid-body polls (the next
// transactional read, write or child begin, and collection code's
// tcc::charge_sem_op) throw Violated, because the code around them must
// not continue.
// Only a commit holding the token flags readers (a store outside a
// transaction is rejected), and commit handlers run inside it, so no memory
// conflict can reach a commit handler while it runs — the TCC property the
// paper relies on.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/flat_map.h"
#include "tm/audit.h"
#include "tm/contention.h"
#include "tm/reader_dir.h"
#include "trace/tracer.h"

namespace atomos {

/// Identifies one *incarnation* of a top-level transaction, for
/// program-directed abort (semantic locks store TxnIds as owners).
struct TxnId {
  int cpu = -1;
  std::uint64_t incarnation = 0;

  friend bool operator==(const TxnId&, const TxnId&) = default;
};

/// One semantic-layer event: a step of a lock table in core/lockers.h (the
/// paper's key2lockers, sizeLockers, rangeLockers, ...) or the settle of a
/// top-level transaction.  Each is reported once, through
/// Runtime::report_sem, which hands it to every observer of that layer.
/// atomos::LockLedger (tm/lock_ledger.h) judges the lock rule from them.
struct SemEvent {
  enum class Kind : std::uint8_t {
    kAcquire,       ///< `owner` took a read-intent lock in `set`
    kRelease,       ///< `owner` released the lock it held in `set`
    kReleaseAll,    ///< every range lock `owner` held in `set` was released
    kReleaseNoop,   ///< a release found nothing: owed to a prune, stale or double
    kPrune,         ///< conflict detection dropped a non-live owner from `set`
    kViolation,     ///< a commit doomed the live `owner` (owner.cpu = victim)
    kSettle,        ///< top-level `owner` ran its commit handlers or compensations
  };
  Kind kind;
  TxnId owner;       ///< lock owner or victim
  const void* set;   ///< locker-set identity (a KeyLockTable's keys: per key)
  const void* site;  ///< trace site: the table a trace names the set by
};

/// The abort side of a commit-handler registration whose commit handler is
/// pure bookkeeping (a latency tally, an audit count): an abort leaves
/// nothing to compensate, so nothing is registered.  An empty lambda would
/// not be free: every abort handler runs as a detached open transaction.
struct NoCompensation {
  explicit NoCompensation() = default;
};
inline constexpr NoCompensation no_compensation{};

/// What on_commit and on_top_commit take as their abort side: a callable
/// compensation, or no_compensation.
template <class A>
concept AbortSide = std::same_as<std::remove_cvref_t<A>, NoCompensation> ||
                    std::invocable<std::remove_cvref_t<A>&>;

template <class A>
inline constexpr bool kCompensates = !std::same_as<std::remove_cvref_t<A>, NoCompensation>;

/// Names a violated transaction, and so its retry point.  Thrown to unwind
/// user code, or returned by the commit path.  Internal control flow; user
/// code must never swallow it.
struct Violated {
  const void* txn;  // which transaction must retry
};

namespace detail {

struct WriteEntry {
  std::uintptr_t addr;  // virtual address (conflict identity / timing)
  void* host;           // committed host storage, written at commit apply
  std::uint64_t val;
  std::uint32_t size;
};

/// One transaction: a top-level transaction or an open-nested child.  A
/// closed-nested `atomically` has no Txn of its own: it runs inline in the
/// enclosing one, which is the only unit of rollback.
///
/// Txn objects are pooled per CPU: reset() rearms one for a fresh
/// incarnation in O(live entries) — the flat maps clear by generation bump
/// and the log vectors keep their capacity, so a retry loop stops paying
/// allocator and rehash costs after its first attempt.
struct Txn {
  int cpu = -1;
  std::uint64_t incarnation = 0;
  std::uint64_t epoch = 0;        // global begin order, for safe reclamation
  bool open = false;              // an open-nested child
  Txn* parent = nullptr;          // enclosing transaction (open-nesting link)
  std::uint64_t start_clock = 0;  // for lost-cycle accounting
  int attempt = 0;

  // Pending violation: the transaction must restart.
  bool killed = false;
  bool kill_semantic = false;

  // Read set: the lines this transaction has read (the values are unused).
  sim::FlatMap<sim::LineAddr, bool> read_set;

  // Redo-log write set.  Entries are unique per address: a repeat write
  // updates its entry in place.
  sim::FlatMap<std::uintptr_t, std::uint32_t> write_idx;
  std::vector<WriteEntry> writes;

  // 256-bit Bloom-style summary of written addresses.  tm_read consults it
  // before probing write_idx on each open-nesting ancestor, so read-mostly
  // transactions skip the read-own-writes walk entirely.
  std::uint64_t write_filter[4] = {0, 0, 0, 0};

  void note_write(std::uintptr_t addr) {
    const std::uint64_t h = sim::hash_u64(addr);
    write_filter[(h >> 6) & 3u] |= std::uint64_t{1} << (h & 63u);
  }
  bool may_have_write(std::uintptr_t addr) const {
    const std::uint64_t h = sim::hash_u64(addr);
    return (write_filter[(h >> 6) & 3u] >> (h & 63u)) & 1u;
  }
  std::vector<std::function<void()>> commit_handlers;
  std::vector<std::function<void()>> abort_handlers;

  // Handlers pinned to the whole (top-level) transaction: immune to
  // open-child rollback.  This is where the collection classes register
  // their single commit/abort handler pair (paper S5's "only one handler,
  // registered on first use"): the open-nested operations they compensate
  // outlive any child that ran them, so the handlers must too.
  // Each pair names its owner, and one owner registers at most one pair per
  // top-level transaction (Runtime::on_top_commit).
  //
  // A top commit handler may carry a needs_token predicate: when every
  // registered handler reports false (e.g. a read-only collection commit
  // whose handler only RELEASES semantic locks) and nothing else needs the
  // token, the commit skips it entirely — releasing read intents is
  // monotone-safe, and this keeps read-dominated workloads from serializing
  // on commit arbitration.
  struct TopCommitHandler {
    const void* owner;
    std::function<void()> fn;
    std::function<bool()> needs_token;  // null => always needs the token
  };
  std::vector<TopCommitHandler> top_commit_handlers;
  std::vector<std::function<void()>> top_abort_handlers;

  // Transactional allocation: news are deleted on abort, deletes deferred
  // to commit.
  struct Resource {
    void* ptr;
    void (*del)(void*);
  };
  std::vector<Resource> allocs;
  std::vector<Resource> deletes;

  /// Rearms a pooled Txn for a new incarnation.  The vectors keep their
  /// capacity; the flat maps clear in O(1) by generation bump.
  void reset(int cpu_, std::uint64_t incarnation_, std::uint64_t epoch_, bool open_,
             Txn* parent_, std::uint64_t start_clock_, int attempt_) {
    cpu = cpu_;
    incarnation = incarnation_;
    epoch = epoch_;
    open = open_;
    parent = parent_;
    start_clock = start_clock_;
    attempt = attempt_;
    killed = false;
    kill_semantic = false;
    read_set.clear();
    write_idx.clear();
    writes.clear();
    write_filter[0] = write_filter[1] = write_filter[2] = write_filter[3] = 0;
    commit_handlers.clear();
    abort_handlers.clear();
    top_commit_handlers.clear();
    top_abort_handlers.clear();
    allocs.clear();
    deletes.clear();
  }
};

/// Book-keeping for one in-flight *chop* (tm/chop.h): a long transaction
/// declared as ordered pieces, each committing as its own top-level
/// transaction.  Between pieces the chop holds no speculative state — only
/// this record of the cache lines its already-committed pieces read or
/// wrote.  A concurrent commit that touches one of those lines *breaks the
/// forward dependency*: the next piece would read state inconsistent with
/// what the earlier pieces observed.  The runtime counts it here; the
/// declared piece order vouches for serializability.
struct ChopState {
  sim::FlatMap<sim::LineAddr, std::int32_t> dep_lines;  // committed pieces' footprint
  std::uint64_t breaks = 0;  // break events observed by this chop
};

}  // namespace detail

class Chop;  // tm/chop.h: ordered piece builder over this runtime

/// Per-simulation TM runtime.  Construct one around an Engine before
/// spawning workers; workers then use the free functions at the bottom of
/// this header (or the members) for all transactional work.
class Runtime {
 public:
  explicit Runtime(sim::Engine& eng,
                   std::unique_ptr<ContentionManager> cm = nullptr);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The runtime attached to the engine currently running on this thread.
  static Runtime& current() {
    if (tls_runtime_ == nullptr) throw_no_runtime();
    return *tls_runtime_;
  }
  static bool active() { return tls_runtime_ != nullptr; }
  /// The active runtime, or nullptr (single thread-local load for hot paths).
  static Runtime* current_or_null() { return tls_runtime_; }

  sim::Engine& engine() { return eng_; }
  sim::Mode mode() const { return eng_.config().mode; }

  /// The txtrace event tracer, or nullptr when tracing is off.  A tracer is
  /// attached when this Runtime is constructed with a pending
  /// trace::set_request() on the current host thread (how the harness
  /// driver's `--trace` reaches a Runtime built deep inside a series body);
  /// the trace file is written in ~Runtime.  Observation only: attaching a
  /// tracer never changes simulated cycles.
  trace::Tracer* tracer() { return tracer_.get(); }

  /// Registers a human name for a semantic lock table (setup-time; the
  /// collection-class wrappers name their tables at construction).
  void trace_name_table(const void* table, const char* name) {
    if (tracer_ != nullptr && name != nullptr) tracer_->name_table(table, name);
  }

  /// txmc instrumentation: observes transactional memory accesses as they
  /// happen and each transaction's final read/write line sets (the FlatMap
  /// sets the Txn maintains, delivered at commit/abort).  The model checker
  /// feeds these to its DPOR-style dependency reduction.  Null by default;
  /// when unset the access path pays one predictable branch.
  class McObserver {
   public:
    virtual ~McObserver() = default;
    /// A transactional load or store of `line` by `cpu` (or, in Tcc mode, a
    /// load outside any transaction).
    virtual void on_access(int cpu, sim::LineAddr line, bool is_write) = 0;
    /// A transaction finished: its read-set lines and de-duplicated
    /// write-set lines.  `open` marks open-nested children.
    virtual void on_txn_sets(int cpu, bool committed, bool open,
                             const std::vector<sim::LineAddr>& reads,
                             const std::vector<sim::LineAddr>& writes) = 0;
    /// A semantic-layer event (see report_sem).
    virtual void on_sem(const SemEvent& /*e*/) {}
  };
  /// Installs (or clears, with nullptr) the model-checker observer.
  void set_mc_observer(McObserver* o) { mc_observer_ = o; }
  McObserver* mc_observer() const { return mc_observer_; }

  /// The one reporting call for a semantic-layer event.  Hands `e` to the
  /// TXCC_CHECKED auditor (an empty inline in unchecked builds), to the
  /// tracer when one is attached and to the model-checker observer when one
  /// is installed.  With neither attached an event costs two predictable
  /// branches.
  void report_sem(const SemEvent& e) {
    audit::on_sem(e);
    if (tracer_ != nullptr && sim::Engine::in_worker()) trace_sem(e);
    if (mc_observer_ != nullptr) mc_observer_->on_sem(e);
  }

  // ---- transactional region API ----

  /// Runs `fn` as a top-level transaction, retried on violation, when none
  /// is active on this CPU.  Inside a transaction `fn` runs inline as part
  /// of it (flattened closed nesting): a violation restarts the enclosing
  /// top-level or open-nested transaction.  In Mode::kLock this is a plain
  /// call.
  template <class F>
  auto atomically(F&& fn) {
    if (mode() == sim::Mode::kLock || !sim::Engine::in_worker()) return fn();
    const int cpu = eng_.cpu_id();
    if (ctx(cpu).cur == nullptr) return run_txn(cpu, /*open=*/false, std::forward<F>(fn));
    return run_inline(cpu, std::forward<F>(fn));
  }

  /// Runs `fn` as an open-nested child transaction: it commits (and becomes
  /// visible to everyone) when `fn` returns, even though the parent is still
  /// speculative; the parent keeps no memory dependency on what `fn` read.
  /// Outside any transaction this is simply a small top-level transaction.
  template <class F>
  auto open_atomically(F&& fn) {
    if (mode() == sim::Mode::kLock || !sim::Engine::in_worker()) return fn();
    return run_txn(eng_.cpu_id(), /*open=*/true, std::forward<F>(fn));
  }

  /// Registers `h` to run if the current transaction commits (at commit,
  /// holding the commit token) and `compensate` to run if it aborts (see
  /// on_abort).  What a commit handler publishes or releases, an abort must
  /// undo, so the abort side is required: a callable, or no_compensation
  /// when `h` is pure bookkeeping.
  template <AbortSide A>
  void on_commit(std::function<void()> h, A&& compensate) {
    add_commit_handler(std::move(h));
    if constexpr (kCompensates<A>) on_abort(std::forward<A>(compensate));
  }
  /// Registers a handler to run if the current transaction aborts (after
  /// rollback, as an independent open transaction).
  void on_abort(std::function<void()> h);

  /// Like on_commit/on_abort, but pinned to the *top-level* transaction of
  /// the calling CPU: the registration survives open-child rollback
  /// (matching the open-nested state those handlers compensate).
  /// `owner` names what the pair commits and compensates (a collection, an
  /// oracle, a tally): one owner registers at most one pair per top-level
  /// transaction, because a compensation run twice re-applies its inverse
  /// to restored state.  A second registration throws std::logic_error and
  /// registers nothing.  `needs_token` (optional, null means true) is
  /// evaluated at commit.  A commit takes the token if it has writes,
  /// deletes, plain commit handlers or a top handler that needs it, and then
  /// runs every handler inside the token.  A commit without the token runs
  /// its top handlers after it: safe only for pure cleanup such as releasing
  /// semantic read locks (the handler must not write Shared memory).
  template <AbortSide A>
  void on_top_commit(const void* owner, std::function<void()> h, A&& compensate,
                     std::function<bool()> needs_token = nullptr) {
    add_top_commit_handler(owner, std::move(h), std::move(needs_token));
    if constexpr (kCompensates<A>) on_top_abort(std::forward<A>(compensate));
  }
  void on_top_abort(std::function<void()> h);

  /// Stable id of the current *top-level* transaction incarnation (for use
  /// as a semantic-lock owner).  Must be called inside a transaction.
  TxnId self_id();

  /// Program-directed abort of another transaction.  Returns true if the
  /// victim incarnation was still running and is now doomed.
  bool violate(const TxnId& victim);

  /// True if the calling CPU is inside any transaction.
  bool in_txn();

  // ---- memory access (used by Shared<T>; Tcc mode only) ----
  void tm_read(std::uintptr_t addr, void* out, std::uint32_t size, const void* committed);
  void tm_write(std::uintptr_t addr, const void* in, std::uint32_t size, void* committed);

  // ---- transactional allocation (used by tx_new / tx_delete) ----
  void track_alloc(void* p, void (*del)(void*));
  void track_delete(void* p, void (*del)(void*));

  /// Charges `cycles` of CPI-1.0 compute to the current CPU, then polls for
  /// a pending violation, so a doomed transaction stops wasting work.  True
  /// means a transaction on this CPU is doomed: the caller returns, and so
  /// does every caller up to the atomically/open_atomically body, whose
  /// boundary aborts it with no C++ unwind (a nested atomically's boundary
  /// throws it on to the enclosing one).  Always false in Mode::kLock and
  /// outside a transaction.  A caller that ignores a true result still stops
  /// at the same clock: the next poll on this CPU (work(), a transactional
  /// read or write, a child begin) throws the violation before it ticks.
  [[nodiscard]] bool work(std::uint64_t cycles) {
    if (mode() == sim::Mode::kLock) {
      eng_.tick(cycles);
      return false;
    }
    const int cpu = eng_.cpu_id();
    CpuCtx& c = ctx(cpu);
    if (c.doom_reported) throw_violation(cpu, flagged_txn(cpu));  // result ignored
    eng_.tick(cycles);
    c.doom_reported = flagged_txn(cpu) != nullptr;
    return c.doom_reported;
  }

  /// Throws the violation that work() just reported.  For collection code
  /// (tcc::charge_sem_op), whose callers go on to mutate lock tables, and
  /// for a nested atomically: neither may let its caller continue past a
  /// doomed poll.
  [[noreturn]] void throw_reported() {
    const int cpu = eng_.cpu_id();
    throw_violation(cpu, flagged_txn(cpu));
  }

  /// Aggregate chopping counters (tm/chop.h), for figure extras and tests.
  /// Purely observational — never feeds back into simulated timing.
  struct ChopStats {
    std::uint64_t chops = 0;           ///< completed Chop::run calls
    std::uint64_t pieces = 0;          ///< pieces committed
    std::uint64_t dep_breaks = 0;      ///< forward-dependency break events
    std::uint64_t compensations = 0;   ///< committed-piece compensations run
  };
  const ChopStats& chop_stats() const { return chop_stats_; }

 private:
  friend class Chop;  // piece execution + compensation entry points below
  struct CpuCtx {
    detail::Txn* cur = nullptr;  // innermost txn (open-nesting stack tip)
    // Stack tips that running compensations have set aside (oldest first;
    // compensations nest).  Those transactions live on: commits, semantic
    // violations and reclamation still see them, but polls, self_id and
    // handler registration read only `cur`, so a doomed parent cannot
    // re-kill its detached handlers.  Entries may be null.
    std::vector<detail::Txn*> set_aside;
    std::uint64_t next_incarnation = 1;  // outlives pooled Txns: ids stay unique
    // work() returned true and the violation has not been delivered yet.
    // Delivery (count_violation) and any exception leaving run_txn clear it.
    bool doom_reported = false;
    std::vector<detail::Txn*> pool;  // retired Txns awaiting reuse
    // Every Txn this CPU created.  A fiber killed mid-transaction (host
    // timeout, failed scheduler hook) unwinds without releasing its Txns.
    std::vector<std::unique_ptr<detail::Txn>> owned;
  };

  CpuCtx& ctx(int cpu) { return ctx_[static_cast<std::size_t>(cpu)]; }
  detail::Txn* bottom_of(int cpu);  // outermost txn of cpu's running stack (or null)
  /// Calls f(t) for every transaction alive on `cpu`: the running stack,
  /// innermost first, then each set-aside stack, newest first.
  template <class F>
  void for_each_live_txn(int cpu, F f) {
    CpuCtx& c = ctx(cpu);
    for (detail::Txn* t = c.cur; t != nullptr; t = t->parent) f(t);
    for (auto it = c.set_aside.rbegin(); it != c.set_aside.rend(); ++it) {
      for (detail::Txn* t = *it; t != nullptr; t = t->parent) f(t);
    }
  }
  /// The live top-level transaction `id` names, running or set aside, or null.
  detail::Txn* live_top(const TxnId& id);

  // The commit sides of on_commit / on_top_commit.
  void add_commit_handler(std::function<void()> h);
  void add_top_commit_handler(const void* owner, std::function<void()> h,
                              std::function<bool()> needs_token);

  // Non-template machinery (runtime.cpp).
  detail::Txn* begin_txn(int cpu, bool open, int attempt);
  /// Commits `t`, or returns the violation that dooms it instead.  A flag
  /// seen before the token, during a read-only open child's token wait, or
  /// right after acquiring the token comes back as a value, with the token
  /// released.  Only violations raised inside commit handlers still throw.
  [[nodiscard]] std::optional<Violated> commit_txn(detail::Txn* t);
  void abort_txn(detail::Txn* t);   // rollback + abort handlers + backoff
  void release_txn(detail::Txn* t);  // drop handlers, park in pool
  /// The outermost flagged transaction on `cpu` (it dominates everything
  /// nested inside it), or null.  Inline: the scan almost always finds
  /// nothing.
  detail::Txn* flagged_txn(int cpu) {
    detail::Txn* flagged = nullptr;
    for (detail::Txn* t = ctx(cpu).cur; t != nullptr; t = t->parent) {
      if (t->killed) flagged = t;
    }
    return flagged;
  }
  /// Charges `flagged`'s violation to `cpu`'s stats and names its retry
  /// point.  Both delivery paths (thrown and returned) go through here.
  Violated count_violation(int cpu, detail::Txn* flagged);
  /// Mid-body poll: throws Violated if any transaction on `cpu` is flagged.
  /// The throw path is out-of-line.
  void check_kill(int cpu) {
    if (detail::Txn* flagged = flagged_txn(cpu)) throw_violation(cpu, flagged);
  }
  [[noreturn]] void throw_violation(int cpu, detail::Txn* flagged);
  void notify_txn_sets(detail::Txn* t, bool committed);  // mc observer fan-out
  /// The trace's view of a semantic event: acquires, releases and
  /// violations are trace events, keyed by the event's trace site.
  void trace_sem(const SemEvent& e) {
    switch (e.kind) {
      case SemEvent::Kind::kAcquire:
        tracer_->on_lock_acquire(eng_.cpu_id(), eng_.now(), e.site);
        break;
      case SemEvent::Kind::kRelease:
      case SemEvent::Kind::kReleaseAll:
        tracer_->on_lock_release(eng_.cpu_id(), eng_.now(), e.site);
        break;
      case SemEvent::Kind::kViolation:
        tracer_->on_sem_violation(eng_.cpu_id(), eng_.now(), e.site, e.owner.cpu);
        break;
      case SemEvent::Kind::kReleaseNoop:
      case SemEvent::Kind::kPrune:
      case SemEvent::Kind::kSettle:
        break;
    }
  }
  void acquire_token(int cpu);
  void release_token(int cpu);
  void flag_readers(sim::LineAddr line, int committer);
  void broadcast_and_apply(detail::Txn& t);
  void collect_garbage();

  // ---- chopping support (tm/chop.h drives these through friendship) ----
  /// Registers `s` as the chop in flight on `cpu`; commits by other CPUs
  /// start probing its dep_lines.  One chop per CPU at a time.
  void chop_begin(int cpu, detail::ChopState* s);
  void chop_end(int cpu);
  /// Counts a break on foreign chops whose dep_lines contain `line`.  Called
  /// under the commit broadcast; a single counter test keeps it off every
  /// hot path while no chop is active.
  void flag_chops(sim::LineAddr line, int committer);
  /// Folds a just-committed piece's read/write lines into its chop's
  /// forward-dependency footprint (called from commit_txn, still inside the
  /// commit's token scope so no foreign commit can slip in unprobed).
  void chop_note_committed_piece(detail::Txn& t);
  /// Runs `handlers` newest-first as detached open transactions — the
  /// shared machinery behind both abort compensation (abort_txn) and the
  /// sweep of a chop whose piece threw (Chop::run).  A handler that unwinds
  /// does not drop its siblings; the first escaped exception is returned for
  /// the caller to rethrow.
  std::exception_ptr run_compensation_handlers(int cpu,
                                               std::vector<std::function<void()>>& handlers);

  /// The retry loop behind atomically() and open_atomically().  A violation
  /// arrives thrown (flag seen by a throwing poll) or returned by commit_txn
  /// (flag seen after the body returned, including one work() reported);
  /// either way `t` aborts the same way, and only a violation of an
  /// enclosing transaction travels on as a throw.
  template <class F>
  auto run_txn(int cpu, bool open, F&& fn) {
    for (int attempt = 0;; ++attempt) {
      detail::Txn* t = begin_txn(cpu, open, attempt);
      std::optional<Violated> v;
      try {
        if constexpr (std::is_void_v<decltype(fn())>) {
          fn();
          v = commit_txn(t);
          if (!v) return;
        } else {
          auto result = fn();
          v = commit_txn(t);
          if (!v) return result;
        }
      } catch (const Violated& thrown) {  // txlint: allow(catch-swallow) handled below
        v = thrown;
      } catch (...) {
        ctx(cpu).doom_reported = false;  // a report ends with its attempt
        abort_txn(t);  // user exception: abort, then propagate
        throw;
      }
      abort_txn(t);
      if (v->txn != t) throw *v;  // an enclosing transaction is doomed
    }
  }

  /// A nested atomically: `fn` runs as part of the enclosing transaction.
  /// A body that returns after work() reported a violation throws it, so the
  /// enclosing body stops there as it would at any other doomed poll.
  template <class F>
  auto run_inline(int cpu, F&& fn) {
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      if (ctx(cpu).doom_reported) throw_reported();
    } else {
      auto result = fn();
      if (ctx(cpu).doom_reported) throw_reported();
      return result;
    }
  }

  [[noreturn]] static void throw_no_runtime();

  inline static thread_local Runtime* tls_runtime_ = nullptr;

  sim::Engine& eng_;
  std::unique_ptr<ContentionManager> cm_;
  std::vector<CpuCtx> ctx_;

  // txtrace: owned event buffers (null when tracing is off) and the file to
  // write at destruction ("" = in-memory only, e.g. overhead benches).
  std::unique_ptr<trace::Tracer> tracer_;
  std::string trace_path_;

  // Line -> reader-CPU bits, set by first reads and cleared by committers
  // that find no reader, so commits flag conflicting readers without
  // scanning every CPU's stack.
  ReaderDir reader_dir_;

  // Commit-broadcast scratch (write-set lines, sorted + uniqued per
  // commit), reused across commits.
  std::vector<sim::LineAddr> scratch_lines_;

  // Active chops, one slot per CPU (null = none).  The count gates the
  // broadcast-side probing so non-chopped workloads never pay for it.
  std::vector<detail::ChopState*> active_chops_;
  int active_chop_count_ = 0;
  ChopStats chop_stats_;

  // txmc observer (null outside model-checking runs).
  McObserver* mc_observer_ = nullptr;
  std::vector<sim::LineAddr> mc_reads_scratch_;
  std::vector<sim::LineAddr> mc_writes_scratch_;

  // Global commit token (TCC commit arbitration): serializes commits and
  // makes commit handlers immune to violation while they run.
  int token_owner_ = -1;
  int token_depth_ = 0;
  std::deque<int> token_queue_;

  // Deferred reclamation: objects deleted at commit are freed only once
  // every transaction that might still hold a host pointer has finished.
  struct Purgatory {
    std::uint64_t epoch;
    void* ptr;
    void (*del)(void*);
  };
  std::deque<Purgatory> purgatory_;
  std::uint64_t next_epoch_ = 1;
};

// ---- Free-function convenience wrappers (the public face of the API) ----

/// See Runtime::atomically.
template <class F>
auto atomically(F&& fn) {
  return Runtime::current().atomically(std::forward<F>(fn));
}

/// See Runtime::open_atomically.
template <class F>
auto open_atomically(F&& fn) {
  return Runtime::current().open_atomically(std::forward<F>(fn));
}

template <AbortSide A>
void on_commit(std::function<void()> h, A&& compensate) {
  Runtime::current().on_commit(std::move(h), std::forward<A>(compensate));
}
inline void on_abort(std::function<void()> h) { Runtime::current().on_abort(std::move(h)); }
inline TxnId self_id() { return Runtime::current().self_id(); }
inline bool violate(const TxnId& victim) { return Runtime::current().violate(victim); }
inline bool in_txn() { return Runtime::active() && Runtime::current().in_txn(); }
/// See Runtime::work: true means the caller's transaction is doomed and the
/// caller must return.
[[nodiscard]] inline bool work(std::uint64_t cycles) { return Runtime::current().work(cycles); }

/// See Runtime::report_sem.  Outside a simulation there is no observer and
/// the event is dropped.
inline void report_sem(const SemEvent& e) {
  if (Runtime* rt = Runtime::current_or_null()) rt->report_sem(e);
}

/// Allocates a T inside (or outside) a transaction.  If the allocating
/// transaction aborts, the object is destroyed; nothing else ever saw it,
/// because speculative writes that would have published it are discarded.
template <class T, class... Args>
T* tx_new(Args&&... args) {
  T* p = new T(std::forward<Args>(args)...);
  if (Runtime::active() && Runtime::current().in_txn()) {
    Runtime::current().track_alloc(p, [](void* q) { delete static_cast<T*>(q); });
  }
  return p;
}

/// Deletes a T transactionally: the delete takes effect only if the
/// transaction commits, and actual reclamation is deferred until every
/// transaction that might still traverse the object has finished.
template <class T>
void tx_delete(T* p) {
  if (p == nullptr) return;
  if (Runtime::active() && Runtime::current().in_txn()) {
    Runtime::current().track_delete(p, [](void* q) { delete static_cast<T*>(q); });
  } else {
    delete p;
  }
}

}  // namespace atomos
