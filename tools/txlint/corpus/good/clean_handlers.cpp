// GOOD: paired handlers, rethrowing catch blocks, by-reference captures and
// a region suppression — nothing in this file may be flagged.
#include "tm/runtime.h"
#include "tm/shared.h"

namespace demo {

struct Table {
  void apply();
  void release();
};

void paired_registration(Table* t) {
  atomos::Runtime::current().on_top_commit(
      t,
      [t] {
        t->apply();
        t->release();
      },
      [t] { t->release(); });
}

void abort_only_compensation(Table* t) {
  // Abort-only registration is legal: it compensates an open-nested action
  // that already committed (cf. CompensatedCounter).
  atomos::Runtime::current().on_top_abort([t] { t->release(); });
}

int rethrowing_catch(int x) {
  try {
    atomos::work(5);
    return x;
  } catch (...) {
    throw;  // pass the unwind on
  }
}

int aborting_catch() {
  try {
    atomos::work(5);
  } catch (...) {
    std::abort();  // not swallowed: the process dies loudly
  }
  return 0;
}

void capture_by_reference() {
  atomos::Shared<long> cell(0, sim::kDataCell);
  atomos::atomically([&cell] { cell.set(1); });
  atomos::atomically([&] { cell.set(2); });
}

}  // namespace demo
