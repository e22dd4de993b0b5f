#include "jbb/engine.h"

#include <string>

#include "tm/chop.h"

namespace jbb {
namespace {

/// Locks in the Java flavour; no-op under transactional execution (the
/// enclosing transaction provides atomicity).
class Guard {
 public:
  Guard(atomos::Mutex& m, Flavor f) : m_(m), use_(f == Flavor::kJava) {
    if (use_) m_.lock();
  }
  ~Guard() {
    if (use_) m_.unlock();
  }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

 private:
  atomos::Mutex& m_;
  bool use_;
};

// The table factories name each instance's contended fields and semantic
// lock tables so TAPE profiles and txtrace conflict reports attribute fig4
// conflicts to named SPECjbb internals rather than generic class labels.
std::unique_ptr<jstd::SortedMap<long, Order*>> make_order_table(Flavor f) {
  auto inner = std::make_unique<jstd::TreeMap<long, Order*>>(
      std::less<long>(), "orderTable.size", "orderTable.root");
  if (f == Flavor::kAtomosTransactional || f == Flavor::kAtomosChopped) {
    return std::make_unique<tcc::TransactionalSortedMap<long, Order*>>(
        std::move(inner), tcc::Detection::kOptimistic, std::less<long>(),
        "orderTable");
  }
  return inner;
}

std::unique_ptr<jstd::SortedMap<long, long>> make_new_order_table(Flavor f) {
  auto inner = std::make_unique<jstd::TreeMap<long, long>>(
      std::less<long>(), "newOrderTable.size", "newOrderTable.root");
  if (f == Flavor::kAtomosTransactional || f == Flavor::kAtomosChopped) {
    return std::make_unique<tcc::TransactionalSortedMap<long, long>>(
        std::move(inner), tcc::Detection::kOptimistic, std::less<long>(),
        "newOrderTable");
  }
  return inner;
}

std::unique_ptr<jstd::Map<long, History*>> make_history_table(Flavor f) {
  auto inner = std::make_unique<jstd::HashMap<long, History*>>(
      4096, "historyTable.size", "historyTable.table");
  if (f == Flavor::kAtomosTransactional || f == Flavor::kAtomosChopped) {
    return std::make_unique<tcc::TransactionalMap<long, History*>>(
        std::move(inner), tcc::Detection::kOptimistic, "historyTable");
  }
  return inner;
}

}  // namespace

Engine::Engine(const JbbConfig& cfg) : cfg_(cfg) {
  items_.reserve(static_cast<std::size_t>(cfg.items));
  std::uint64_t s = 42;
  for (int i = 0; i < cfg.items; ++i) {
    items_.push_back(Item{i, 100 + static_cast<long>(rnd(s) % 9900)});
  }
  wh_ = std::make_unique<Warehouse>(cfg.flavor, make_history_table(cfg.flavor));
  wh_->stock.reserve(static_cast<std::size_t>(cfg.items));
  for (int i = 0; i < cfg.items; ++i) {
    wh_->stock.push_back(std::make_unique<Stock>(10000));
  }
  for (int d = 0; d < cfg.districts; ++d) {
    auto dist = std::make_unique<District>(d, cfg.flavor, make_order_table(cfg.flavor),
                                           make_new_order_table(cfg.flavor));
    for (int c = 0; c < cfg.customers_per_district; ++c) {
      dist->customers.push_back(std::make_unique<Customer>(c, d));
    }
    districts_.push_back(std::move(dist));
  }
  // Seed each district with a few delivered-pending orders so Delivery and
  // StockLevel have work from the start (setup code: untimed, no locks).
  for (int d = 0; d < cfg.districts; ++d) {
    std::uint64_t rng = 1000 + static_cast<std::uint64_t>(d);
    for (int i = 0; i < kInitialOrdersPerDistrict; ++i) new_order(d, rng);
  }
}

Engine::~Engine() {
  for (auto& d : districts_) {
    for (auto it = d->order_table->iterator(); it->has_next();) delete it->next().second;
  }
  for (auto it = wh_->history_table->iterator(); it->has_next();) delete it->next().second;
}

bool Engine::think(std::uint64_t cycles) {
  if (!sim::Engine::in_worker()) return false;
  if (atomos::Runtime::active()) return atomos::Runtime::current().work(cycles);
  sim::Engine::get().tick(cycles);
  return false;
}

template <class F>
void Engine::in_txn_or_plain(F&& body) {
  if (cfg_.flavor == Flavor::kJava || !atomos::Runtime::active()) {
    body();
  } else {
    atomos::Runtime::current().atomically(body);
  }
}

void Engine::new_order(int dnum, std::uint64_t& rng) {
  District& d = district(dnum);
  const auto cidx = rnd(rng) % d.customers.size();
  const int nlines = 5 + static_cast<int>(rnd(rng) % 6);
  // Pre-draw the random choices so transaction retries replay identically.
  std::vector<std::pair<long, long>> picks;  // (item, qty)
  picks.reserve(static_cast<std::size_t>(nlines));
  for (int i = 0; i < nlines; ++i) {
    picks.emplace_back(static_cast<long>(rnd(rng) % items_.size()),
                       1 + static_cast<long>(rnd(rng) % 5));
  }
  if (cfg_.flavor == Flavor::kAtomosChopped && atomos::Runtime::active()) {
    // Chopped: the district phase and the stock walk commit as separate
    // ordered pieces (tm/chop.h), so a concurrent operation that
    // conflicts only with the stock walk no longer violates the district
    // work (and vice versa).  The district piece registers a compensation
    // that removes the order again; it runs only if the stock piece throws,
    // but the contract (tm/chop.h) wants mutating non-final pieces to be
    // undoable.
    Customer* cust = d.customers[cidx].get();
    long oid = 0;
    long total = 0;
    long prev_last = 0;
    atomos::chopped()
        .piece("district",
               [&] {
                 wh_->txn_count.add(1);
                 std::vector<OrderLine> lines;
                 total = 0;
                 lines.reserve(picks.size());
                 for (const auto& [item, qty] : picks) {
                   const long amount = qty * items_[static_cast<std::size_t>(item)].price;
                   lines.push_back(OrderLine{item, qty, amount});
                   total += amount;
                 }
                 oid = d.next_order.next();
                 Order* o = atomos::tx_new<Order>(oid, cust->id, std::move(lines));
                 if (think(cfg_.think_cycles)) return;
                 d.order_table->put(oid, o);
                 d.new_order_table->put(oid, oid);
                 prev_last = cust->last_order.get();
                 cust->last_order.set(oid);
                 d.ytd.add(total);
               },
               /*compensate=*/
               [&] {
                 d.new_order_table->remove(oid);
                 d.order_table->remove(oid);
                 cust->last_order.set(prev_last);
                 d.ytd.add(-total);
               })
        .piece("stock",
               [&] {
                 for (const auto& [item, qty] : picks) {
                   Stock& st = *wh_->stock[static_cast<std::size_t>(item)];
                   st.quantity.set(st.quantity.get() - qty);
                   st.ytd.set(st.ytd.get() + qty);
                 }
                 if (think(cfg_.think_cycles)) return;
               },
               atomos::no_compensation)  // final piece: nothing commits after it
        .run();
    return;
  }
  in_txn_or_plain([&] {
    wh_->txn_count.add(1);  // SPECjbb per-warehouse transaction statistic
    Customer* cust = d.customers[cidx].get();
    std::vector<OrderLine> lines;
    long total = 0;
    lines.reserve(picks.size());
    for (const auto& [item, qty] : picks) {
      const long amount = qty * items_[static_cast<std::size_t>(item)].price;
      lines.push_back(OrderLine{item, qty, amount});
      total += amount;
    }
    const long oid = d.next_order.next();
    Order* o = atomos::tx_new<Order>(oid, cust->id, std::move(lines));
    {
      // SPECjbb-style coarse synchronized region: the district-data phase,
      // business logic included, under one lock.
      Guard g(d.mu, cfg_.flavor);
      if (think(cfg_.think_cycles)) return;
      d.order_table->put(oid, o);
      d.new_order_table->put(oid, oid);
      cust->last_order.set(oid);
      d.ytd.add(total);
    }
    for (const auto& [item, qty] : picks) {
      Stock& st = *wh_->stock[static_cast<std::size_t>(item)];
      Guard g(st.mu, cfg_.flavor);  // Java: synchronized(stock), per item
      st.quantity.set(st.quantity.get() - qty);
      st.ytd.set(st.ytd.get() + qty);
    }
    if (think(cfg_.think_cycles)) return;
  });
}

void Engine::payment(int dnum, std::uint64_t& rng) {
  District& d = district(dnum);
  const auto cidx = rnd(rng) % d.customers.size();
  const long amount = 100 + static_cast<long>(rnd(rng) % 5000);
  if (cfg_.flavor == Flavor::kAtomosChopped && atomos::Runtime::active()) {
    // Chopped: the warehouse-wide section (audit record + warehouse YTD)
    // and the district section commit separately — Payments against
    // different districts only ever contend for one short warehouse piece.
    Customer* cust = d.customers[cidx].get();
    long hid = 0;
    atomos::chopped()
        .piece("warehouse",
               [&] {
                 wh_->txn_count.add(1);
                 wh_->ytd.add(amount);
                 hid = wh_->next_history.next();
                 History* h = atomos::tx_new<History>(History{cust->id, d.id, amount});
                 wh_->history_table->put(hid, h);
               },
               /*compensate=*/
               [&] {
                 wh_->history_table->remove(hid);
                 wh_->ytd.add(-amount);
               })
        .piece("district",
               [&] {
                 if (think(cfg_.think_cycles)) return;
                 d.ytd.add(amount);
                 cust->balance.set(cust->balance.get() - amount);
                 cust->ytd_payment.set(cust->ytd_payment.get() + amount);
                 if (think(cfg_.think_cycles)) return;
               },
               atomos::no_compensation)  // final piece: nothing commits after it
        .run();
    return;
  }
  in_txn_or_plain([&] {
    wh_->txn_count.add(1);
    Customer* cust = d.customers[cidx].get();
    long hid;
    {
      // Warehouse-wide section: kept short (id + audit record + YTD).
      Guard g(wh_->mu, cfg_.flavor);
      wh_->ytd.add(amount);
      hid = wh_->next_history.next();
      History* h = atomos::tx_new<History>(History{cust->id, d.id, amount});
      wh_->history_table->put(hid, h);
    }
    {
      Guard g(d.mu, cfg_.flavor);
      if (think(cfg_.think_cycles)) return;
      d.ytd.add(amount);
      cust->balance.set(cust->balance.get() - amount);
      cust->ytd_payment.set(cust->ytd_payment.get() + amount);
    }
    if (think(cfg_.think_cycles)) return;
  });
}

void Engine::order_status(int dnum, std::uint64_t& rng) {
  District& d = district(dnum);
  const auto cidx = rnd(rng) % d.customers.size();
  in_txn_or_plain([&] {
    wh_->txn_count.add(1);
    Customer* cust = d.customers[cidx].get();
    Guard g(d.mu, cfg_.flavor);
    if (think(cfg_.think_cycles)) return;
    const long oid = cust->last_order.get();
    if (oid != 0) {
      if (auto o = d.order_table->get(oid); o.has_value()) {
        long total = (*o)->total();
        (void)total;
        (void)(*o)->carrier_id.get();
      }
    }
  });
}

void Engine::delivery(int dnum, std::uint64_t& rng) {
  District& d = district(dnum);
  const long carrier = 1 + static_cast<long>(rnd(rng) % 10);
  in_txn_or_plain([&] {
    wh_->txn_count.add(1);
    Guard g(d.mu, cfg_.flavor);
    if (think(cfg_.think_cycles)) return;
    const auto first = d.new_order_table->first_key();
    if (!first.has_value()) return;
    d.new_order_table->remove(*first);
    if (auto o = d.order_table->get(*first); o.has_value()) {
      (*o)->carrier_id.set(carrier);
      Customer* cust = d.customers[static_cast<std::size_t>((*o)->customer_id)].get();
      cust->balance.set(cust->balance.get() + (*o)->total());
    }
  });
}

void Engine::stock_level(int dnum, std::uint64_t& rng) {
  District& d = district(dnum);
  const long threshold = 9000 + static_cast<long>(rnd(rng) % 1000);
  in_txn_or_plain([&] {
    wh_->txn_count.add(1);
    std::vector<long> item_ids;
    {
      Guard g(d.mu, cfg_.flavor);
      if (think(cfg_.think_cycles)) return;
      // Window of the ~10 most recent orders.  Derive the bound from the
      // order-id counter rather than lastKey(): observing the last key
      // would conflict with EVERY concurrent NewOrder (Section 5.1's
      // "reveal no more than necessary" guideline).
      const long next = d.next_order.current();
      if (next <= 1) return;
      const long lo = next > 11 ? next - 11 : 1;
      for (auto it = d.order_table->range_iterator(lo, next); it->has_next();) {
        Order* o = it->next().second;
        for (const auto& line : o->lines) item_ids.push_back(line.item_id);
      }
    }
    long low = 0;
    for (long item : item_ids) {
      Stock& st = *wh_->stock[static_cast<std::size_t>(item)];
      Guard g(st.mu, cfg_.flavor);
      if (st.quantity.get() < threshold) ++low;
    }
    (void)low;
  });
}

void Engine::run_mixed_op(int district, std::uint64_t& rng, OpCounts& counts) {
  const std::uint64_t roll = rnd(rng) % 100;
  if (roll < 45) {
    new_order(district, rng);
    counts.new_order++;
  } else if (roll < 88) {
    payment(district, rng);
    counts.payment++;
  } else if (roll < 92) {
    order_status(district, rng);
    counts.order_status++;
  } else if (roll < 96) {
    delivery(district, rng);
    counts.delivery++;
  } else {
    stock_level(district, rng);
    counts.stock_level++;
  }
}

long Engine::committed_order_count() const {
  long total = 0;
  for (const auto& d : districts_) total += d->order_table->size();
  return total;
}

long Engine::committed_new_order_count() const {
  long total = 0;
  for (const auto& d : districts_) total += d->new_order_table->size();
  return total;
}

// Offline consistency oracle: runs between simulations on quiesced state, so
// raw committed-value reads are exactly what it wants.
bool Engine::check_consistency(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  // 1. Every pending new-order refers to an existing order; order ids are
  //    below the district's next-order counter; id -> order.id agrees.
  for (const auto& d : districts_) {
    const long next = d->next_order.unsafe_peek();
    if (d->order_table->size() > next - 1) return fail("more orders than ids issued");
    for (auto it = d->new_order_table->iterator(); it->has_next();) {
      const long oid = it->next().first;
      if (!d->order_table->contains_key(oid)) return fail("dangling new-order " + std::to_string(oid));
    }
    for (auto it = d->order_table->iterator(); it->has_next();) {
      auto [oid, o] = it->next();
      if (o->id != oid) return fail("order id mismatch");
      if (oid >= next) return fail("order id beyond counter");
      // Delivered orders must no longer be pending.
      if (o->carrier_id.unsafe_peek() != 0 && d->new_order_table->contains_key(oid))
        return fail("delivered order still pending");
    }
  }
  // 2. Warehouse YTD equals the sum of customer YTD payments (every payment
  //    updates both atomically).
  long cust_ytd = 0;
  for (const auto& d : districts_) {
    for (const auto& c : d->customers) cust_ytd += c->ytd_payment.unsafe_peek();
  }
  if (wh_->ytd.unsafe_peek() != cust_ytd) return fail("warehouse YTD != sum of customer YTD");
  // 3. History ids: at most next_history - 1 records (holes allowed only in
  //    the open-nested flavours).
  const long hist = wh_->history_table->size();
  const long hnext = wh_->next_history.unsafe_peek();
  if (hist > hnext - 1) return fail("more history records than ids issued");
  if ((cfg_.flavor == Flavor::kJava || cfg_.flavor == Flavor::kAtomosBaseline) &&
      hist != hnext - 1)
    return fail("history id holes in a fully-isolated flavour");
  return true;
}

}  // namespace jbb
