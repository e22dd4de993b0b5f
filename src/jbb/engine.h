// The high-contention SPECjbb2000-style engine (paper Section 6.3).
//
// One shared warehouse, D districts, the five TPC-C-style operations, in
// five build flavours (fig4 runs the first four, fig6 adds the last):
//
//   kJava                — lock-mode run: each shared structure is guarded
//                          by its own mutex with SHORT critical sections
//                          (the original synchronized-Java parallelization);
//   kAtomosBaseline      — each operation is ONE coarse transaction over
//                          plain jstd collections ("novice" parallelization:
//                          trivially correct, conflict-prone);
//   kAtomosOpen          — + the District.nextOrder / history-id counters
//                          become open-nested UID generators;
//   kAtomosTransactional — + historyTable wrapped in TransactionalMap and
//                          orderTable/newOrderTable in
//                          TransactionalSortedMap;
//   kAtomosChopped       — + NewOrder and Payment run as tm::chopped()
//                          pieces (tm/chop.h): the district phase and the
//                          stock walk (NewOrder), the warehouse section and
//                          the district section (Payment) each commit as
//                          their own transaction, in order, shrinking
//                          the conflict window below the open-nested
//                          flavour's whole-operation footprint (fig6).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/open_counter.h"
#include "core/txmap.h"
#include "core/txsortedmap.h"
#include "harness/latency.h"
#include "harness/speedup.h"
#include "jbb/model.h"
#include "jstd/hashmap.h"
#include "jstd/treemap.h"
#include "tm/mutex.h"
#include "tm/runtime.h"

namespace jbb {

enum class Flavor {
  kJava,
  kAtomosBaseline,
  kAtomosOpen,
  kAtomosTransactional,
  kAtomosChopped,
};

/// The open-nested flavours share counter/collection plumbing; kAtomosChopped
/// is kAtomosTransactional plus chopping in the operation bodies.
inline bool uses_open_nesting(Flavor f) {
  return f == Flavor::kAtomosOpen || f == Flavor::kAtomosTransactional ||
         f == Flavor::kAtomosChopped;
}

/// The simulator mode a flavour runs in: lock mode for kJava.
inline sim::Mode mode_of(Flavor f) {
  return f == Flavor::kJava ? sim::Mode::kLock : sim::Mode::kTcc;
}

struct JbbConfig {
  Flavor flavor = Flavor::kAtomosTransactional;
  int districts = 10;
  int items = 200;
  int customers_per_district = 20;
  std::uint64_t think_cycles = 300;  // computation inside each operation
};

/// New orders each district is seeded with before the run.
inline constexpr int kInitialOrdersPerDistrict = 5;

/// A unique-id source whose implementation varies by flavour.  Both cells
/// exist in every flavour, so every flavour builds the same virtual layout.
class Sequence {
 public:
  // plain_ shares the counter arena with uid_'s cell: the Baseline flavour's
  // pathology must be the *semantic* parent-level RMW on the counter, never
  // accidental co-residency with unrelated cells.
  Sequence(long first, const char* name, Flavor f)
      : open_(uses_open_nesting(f)), uid_(first, name), plain_(first, sim::kCounterCell, name) {}

  long next() {
    if (open_) return uid_.next();  // open-nested: no parent dependency
    // Java: a short mutex hold around the increment.  Baseline: a
    // read-modify-write inside the enclosing coarse transaction, so the
    // counter line joins the parent's read/write set (the Figure 4
    // "Baseline" pathology).
    atomos::LockModeGuard g(mu_);
    const long id = plain_.get();
    plain_.set(id + 1);
    return id;
  }

  /// Reads the counter's current value without reserving an id.  In the
  /// open-nested flavours this takes NO semantic lock (callers accept a
  /// slightly stale bound); in the others it reads within the enclosing
  /// synchronization as usual.
  long current() {
    // Documented stale read: callers accept an unsynchronized bound, so no
    // semantic lock (and no read-set entry) is taken on purpose.
    if (open_) return atomos::open_atomically([&] { return uid_.stale_next(); });
    atomos::LockModeGuard g(mu_);
    return plain_.get();
  }

  /// Committed value of the counter (reporting only).
  long unsafe_peek() const { return open_ ? uid_.unsafe_peek_next() : plain_.unsafe_peek(); }

 private:
  const bool open_;
  tcc::UidGenerator uid_;
  atomos::Shared<long> plain_;
  atomos::Mutex mu_;
};

/// A YTD-style accumulator whose implementation varies by flavour (the
/// paper's "several global counters" wrapped by the Atomos Open step).
/// Both cells exist in every flavour, as in Sequence.
class Accumulator {
 public:
  Accumulator(const char* name, Flavor f)
      : open_(uses_open_nesting(f)), cc_(0, name), plain_(0, sim::kCounterCell, name) {}

  void add(long delta) {
    if (open_) {
      cc_.add(delta);  // open-nested, abort-compensated: exact totals
      return;
    }
    // Java: under a short mutex.  Baseline: a parent-level RMW,
    // conflict-prone.
    atomos::LockModeGuard g(mu_);
    plain_.set(plain_.get() + delta);
  }

  long unsafe_peek() const { return open_ ? cc_.unsafe_peek() : plain_.unsafe_peek(); }

 private:
  const bool open_;
  tcc::CompensatedCounter cc_;
  atomos::Shared<long> plain_;
  atomos::Mutex mu_;
};

struct District {
  District(long id_, Flavor flavor, std::unique_ptr<jstd::SortedMap<long, Order*>> orders,
           std::unique_ptr<jstd::SortedMap<long, long>> new_orders)
      : id(id_), next_order(1, "District.nextOrder", flavor), ytd("District.ytd", flavor),
        order_table(std::move(orders)), new_order_table(std::move(new_orders)) {}

  const long id;
  Sequence next_order;
  Accumulator ytd;
  std::unique_ptr<jstd::SortedMap<long, Order*>> order_table;
  std::unique_ptr<jstd::SortedMap<long, long>> new_order_table;  // oid -> oid
  std::vector<std::unique_ptr<Customer>> customers;
  atomos::Mutex mu;  // lock-mode guard for this district's state
};

struct Warehouse {
  explicit Warehouse(Flavor flavor, std::unique_ptr<jstd::Map<long, History*>> history)
      : ytd("Warehouse.ytd", flavor), next_history(1, "Warehouse.nextHistory", flavor),
        txn_count("Warehouse.txnCount", flavor), history_table(std::move(history)) {}

  Accumulator ytd;
  Sequence next_history;
  /// SPECjbb's per-warehouse transaction statistic: every operation bumps it
  /// inside its coarse transaction (the TransactionManager counts each
  /// processed transaction toward the warehouse's score).  With one shared
  /// warehouse this is the paper's canonical "global counter": under
  /// Baseline the parent-level RMW makes EVERY pair of concurrent
  /// operations conflict; the Atomos Open step moves it (with the UID and
  /// YTD counters) into open-nested children.
  Accumulator txn_count;
  std::unique_ptr<jstd::Map<long, History*>> history_table;
  std::vector<std::unique_ptr<Stock>> stock;  // indexed by item id
  atomos::Mutex mu;  // lock-mode guard for warehouse-wide state
};

/// Per-thread operation counters (validated by tests, reported by benches).
struct OpCounts {
  long new_order = 0;
  long payment = 0;
  long order_status = 0;
  long delivery = 0;
  long stock_level = 0;
  long total() const { return new_order + payment + order_status + delivery + stock_level; }
};

/// The single-warehouse TPC-C-style engine.
class Engine {
 public:
  explicit Engine(const JbbConfig& cfg);
  ~Engine();

  const JbbConfig& config() const { return cfg_; }
  Warehouse& warehouse() { return *wh_; }
  District& district(int d) { return *districts_[static_cast<std::size_t>(d)]; }

  // ---- the five TPC-C-style operations ----
  // Each takes the acting district and a deterministic RNG state; in Atomos
  // flavours the whole body runs as one transaction (NewOrder and Payment
  // as two chop pieces in kAtomosChopped), in Java flavour the body takes
  // short per-structure locks.

  void new_order(int district, std::uint64_t& rng);
  void payment(int district, std::uint64_t& rng);
  void order_status(int district, std::uint64_t& rng);
  void delivery(int district, std::uint64_t& rng);
  void stock_level(int district, std::uint64_t& rng);

  /// Runs one operation drawn from the TPC-C mix; updates `counts`.
  void run_mixed_op(int district, std::uint64_t& rng, OpCounts& counts);

  // ---- consistency checks (tests; run after the simulation) ----
  long committed_order_count() const;
  long committed_new_order_count() const;
  bool check_consistency(std::string* why = nullptr) const;

 private:
  template <class F>
  void in_txn_or_plain(F&& body);
  /// Runs an operation written as two sections, each returning true when
  /// its transaction is doomed.  When chopping, they are ordered chop pieces
  /// and `undo` compensates the first; otherwise one in_txn_or_plain body
  /// in which a doomed first section skips the second.
  template <class First, class Undo, class Second>
  void run_sections(const char* first_name, First&& first, Undo&& undo,
                    const char* second_name, Second&& second);
  bool chops() const {
    return cfg_.flavor == Flavor::kAtomosChopped && atomos::Runtime::active();
  }
  static std::uint64_t rnd(std::uint64_t& s) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  }
  /// Business logic: charges `cycles` of compute.  True when the
  /// transaction is doomed (atomos::Runtime::work); the body then returns.
  [[nodiscard]] bool think(std::uint64_t cycles);

  JbbConfig cfg_;
  std::vector<Item> items_;
  std::unique_ptr<Warehouse> wh_;
  std::vector<std::unique_ptr<District>> districts_;
};

// ---- one sweep point (figs 4 and 6, their tests) ----

/// Figure 4's configuration of `f`: ten districts and a TPC-C-like
/// 2000-item catalogue, so stock collisions are rare.
JbbConfig fig4_config(Flavor f);

/// What a sweep point reports besides the engine's stats.
struct PointReport {
  long ops = 0;                       ///< operations run, all CPUs
  long txn_count = 0;                 ///< Warehouse::txn_count after the run
  harness::LatencyHistogram latency;  ///< per-operation service cycles
  std::uint64_t chop_pieces = 0;      ///< Runtime::chop_stats()
  std::uint64_t chop_dep_breaks = 0;
};

/// One sweep point: an Engine built from `jc` on `cpus` virtual CPUs (lock
/// mode for kJava), each CPU running `total_ops / cpus` mixed operations
/// from its own RNG stream, perturbed by `salt` (0 is the canonical run).
/// Fills `out`'s stats; a failed consistency check throws
/// std::runtime_error naming `name`, which poisons the point.
PointReport run_point(const std::string& name, const JbbConfig& jc, int cpus,
                      std::uint64_t salt, int total_ops, harness::RunResult& out);

/// run_point as a harness::Series named `name`.
harness::Series series(const std::string& name, const JbbConfig& jc, int total_ops);

}  // namespace jbb
