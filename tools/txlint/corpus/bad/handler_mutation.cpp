// BAD: handler bodies that mutate a collection directly with no
// compensation_run site registration.  The TXCC_CHECKED auditor and the
// txmc serializability oracle attribute compensations by site; an
// unregistered mutation is invisible to both, so a doubled handler run
// (the runtime legally retries a doomed handler transaction) or a lost one
// corrupts the committed collection without a report.
#include "tm/runtime.h"

namespace demo {

struct Bag {
  void put(long k, long v);
  void remove(long k);
};

void uncompensated_abort(Bag* bag, long k, long v) {
  atomos::Runtime::current().on_top_abort([bag, k, v] {
    bag->put(k, v);  // BAD: restores state with no compensation_run(site)
  });
}

void uncompensated_commit(Bag* bag, long k) {
  atomos::Runtime::current().on_top_commit([bag, k] {
    bag->remove(k);  // BAD: commit-side mutation, also unattributed
  }, atomos::no_compensation);
}

}  // namespace demo
