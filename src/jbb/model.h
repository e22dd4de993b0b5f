// Entity model for the high-contention SPECjbb2000-style workload
// (paper Section 6.3).
//
// SPECjbb2000 is TPC-C-shaped: one company, warehouses with districts,
// customers placing orders for items held in stock.  The paper's variant
// forces every thread onto a SINGLE warehouse and replaces the original
// binary trees with java.util collections (as SPECjbb2005 did); the shared
// hot spots that Figure 4 turns on are:
//   * District.nextOrder  — a UID generator bumped by every NewOrder,
//   * Warehouse.historyTable (Map)  — appended by every Payment,
//   * District.orderTable / newOrderTable (SortedMap) — NewOrder/Delivery.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tm/mutex.h"
#include "tm/shared.h"

namespace jbb {

/// Immutable catalogue entry (read-only after setup: plain fields).
struct Item {
  long id = 0;
  long price = 0;  // cents
};

/// Per-(warehouse,item) stock record.  In the Java flavour each Stock is
/// its own synchronization object (Java's synchronized(stock) idiom).
struct Stock {
  explicit Stock(long q) : quantity(q, sim::kDataCell), ytd(0, sim::kDataCell) {}
  atomos::Shared<long> quantity;
  atomos::Shared<long> ytd;
  atomos::Mutex mu;
};

struct Customer {
  Customer(long id_, long district)
      : id(id_), district_id(district), balance(0, sim::kDataCell),
        ytd_payment(0, sim::kDataCell), last_order(0, sim::kDataCell) {}
  const long id;
  const long district_id;
  atomos::Shared<long> balance;      // cents
  atomos::Shared<long> ytd_payment;  // cents
  atomos::Shared<long> last_order;   // most recent order id (0 = none)
};

struct OrderLine {
  long item_id = 0;
  long quantity = 0;
  long amount = 0;  // quantity * price, cents
};

struct Order {
  Order(long id_, long customer, std::vector<OrderLine> lines_)
      : id(id_), customer_id(customer), lines(std::move(lines_)), carrier_id(0, sim::kDataCell) {}
  const long id;
  const long customer_id;
  const std::vector<OrderLine> lines;  // immutable after creation
  atomos::Shared<long> carrier_id;     // 0 until Delivery assigns one

  long total() const {
    long t = 0;
    for (const auto& l : lines) t += l.amount;
    return t;
  }
};

/// Payment audit record (immutable once inserted).
struct History {
  long customer_id = 0;
  long district_id = 0;
  long amount = 0;
};

}  // namespace jbb
