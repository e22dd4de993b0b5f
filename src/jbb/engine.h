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
#include <vector>

#include "core/open_counter.h"
#include "core/txmap.h"
#include "core/txsortedmap.h"
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

struct JbbConfig {
  Flavor flavor = Flavor::kAtomosTransactional;
  int districts = 10;
  int items = 200;
  int customers_per_district = 20;
  std::uint64_t think_cycles = 300;  // computation inside each operation
};

/// New orders each district is seeded with before the run.
inline constexpr int kInitialOrdersPerDistrict = 5;

/// A unique-id source whose implementation varies by flavour.
class Sequence {
 public:
  // plain_ shares the counter arena with uid_'s cell: the Baseline flavour's
  // pathology must be the *semantic* parent-level RMW on the counter, never
  // accidental co-residency with unrelated cells.
  explicit Sequence(long first, const char* name)
      : flavor_(Flavor::kJava), uid_(first, name), plain_(first, sim::kCounterCell, name) {}

  void set_flavor(Flavor f) { flavor_ = f; }

  long next() {
    switch (flavor_) {
      case Flavor::kJava: {
        // Short mutex hold around the increment (lock mode).
        atomos::LockGuard g(mu_);
        const long id = plain_.get();
        plain_.set(id + 1);
        return id;
      }
      case Flavor::kAtomosBaseline: {
        // Read-modify-write inside the enclosing coarse transaction: the
        // counter line joins the parent's read/write set (the Figure 4
        // "Baseline" pathology).
        const long id = plain_.get();
        plain_.set(id + 1);
        return id;
      }
      case Flavor::kAtomosOpen:
      case Flavor::kAtomosTransactional:
      case Flavor::kAtomosChopped:
        return uid_.next();  // open-nested: no parent dependency
    }
    throw std::logic_error("unreachable");
  }

  /// Reads the counter's current value without reserving an id.  In the
  /// open-nested flavours this takes NO semantic lock (callers accept a
  /// slightly stale bound); in the others it reads within the enclosing
  /// synchronization as usual.
  long current() {
    switch (flavor_) {
      case Flavor::kJava: {
        atomos::LockGuard g(mu_);
        return plain_.get();
      }
      case Flavor::kAtomosBaseline:
        return plain_.get();
      case Flavor::kAtomosOpen:
      case Flavor::kAtomosTransactional:
      case Flavor::kAtomosChopped:
        // Documented stale read: callers accept an unsynchronized bound, so
        // no semantic lock (and no read-set entry) is taken on purpose.
        return atomos::open_atomically([&] { return uid_.stale_next(); });
    }
    throw std::logic_error("unreachable");
  }

  /// Committed value of the counter (reporting only).
  long unsafe_peek() const {
    return uses_open_nesting(flavor_) ? uid_.unsafe_peek_next() : plain_.unsafe_peek();
  }

 private:
  Flavor flavor_;
  tcc::UidGenerator uid_;
  atomos::Shared<long> plain_;
  atomos::Mutex mu_;
};

/// A YTD-style accumulator whose implementation varies by flavour (the
/// paper's "several global counters" wrapped by the Atomos Open step).
class Accumulator {
 public:
  explicit Accumulator(const char* name)
      : flavor_(Flavor::kJava), cc_(0, name), plain_(0, sim::kCounterCell, name) {}

  void set_flavor(Flavor f) { flavor_ = f; }

  void add(long delta) {
    switch (flavor_) {
      case Flavor::kJava: {
        atomos::LockGuard g(mu_);
        plain_.set(plain_.get() + delta);
        return;
      }
      case Flavor::kAtomosBaseline:
        plain_.set(plain_.get() + delta);  // parent-level RMW: conflict-prone
        return;
      case Flavor::kAtomosOpen:
      case Flavor::kAtomosTransactional:
      case Flavor::kAtomosChopped:
        cc_.add(delta);  // open-nested, abort-compensated: exact totals
        return;
    }
  }

  long unsafe_peek() const {
    return uses_open_nesting(flavor_) ? cc_.unsafe_peek() : plain_.unsafe_peek();
  }

 private:
  Flavor flavor_;
  tcc::CompensatedCounter cc_;
  atomos::Shared<long> plain_;
  atomos::Mutex mu_;
};

struct District {
  District(long id_, Flavor flavor, std::unique_ptr<jstd::SortedMap<long, Order*>> orders,
           std::unique_ptr<jstd::SortedMap<long, long>> new_orders)
      : id(id_), next_order(1, "District.nextOrder"), ytd("District.ytd"),
        order_table(std::move(orders)), new_order_table(std::move(new_orders)) {
    next_order.set_flavor(flavor);
    ytd.set_flavor(flavor);
  }

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
      : ytd("Warehouse.ytd"), next_history(1, "Warehouse.nextHistory"),
        txn_count("Warehouse.txnCount"), history_table(std::move(history)) {
    next_history.set_flavor(flavor);
    ytd.set_flavor(flavor);
    txn_count.set_flavor(flavor);
  }

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
  // flavours the whole body runs as one transaction, in Java flavour the
  // body takes short per-structure locks.

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

}  // namespace jbb
