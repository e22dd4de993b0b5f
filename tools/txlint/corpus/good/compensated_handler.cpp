// GOOD: handler bodies that mutate collections register their compensation
// site first (the transactional-collection idiom), and handlers that only
// dispatch or release locks are not mutations at all.  Nothing in this file
// may be flagged.
#include "tm/runtime.h"

namespace demo {

struct Bag {
  void put(long k, long v);
  void remove(long k);
};

struct Locks {
  void unlock(long k);
};

void compensated_abort(Bag* bag, long k, long v) {
  atomos::Runtime::current().on_top_commit(
      [bag, k] {
        atomos::compensation_run(0, bag);
        bag->remove(k);
      },
      [bag, k, v] {
        atomos::compensation_run(0, bag);
        bag->put(k, v);  // registered first: the auditor can attribute this
      });
}

void dispatching_handler(Bag* bag, Locks* locks, long k) {
  // Dispatch-only and lock-release-only handlers are the other disciplined
  // shapes: no direct collection mutation in the lambda body.
  atomos::Runtime::current().on_top_commit([locks, k] { locks->unlock(k); },
                                           [locks, k] { locks->unlock(k); });
}

}  // namespace demo
