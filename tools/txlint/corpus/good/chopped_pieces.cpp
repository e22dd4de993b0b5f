// GOOD: the three disciplined chop-piece shapes.  A mutating non-final
// piece carries an undo lambda as its compensation argument (or registers a
// compensation_run site in its body); the FINAL piece — the one `.run()` is
// invoked on — is covered by the enclosing abort path and needs neither.
// Nothing in this file may be flagged.
#include "tm/chop.h"

namespace demo {

struct Bag {
  void put(long k, long v);
  void remove(long k);
  long get(long k);
};

void compensated_pieces(Bag* bag, long k, long v) {
  atomos::chopped()
      .piece("insert", [bag, k, v] { bag->put(k, v); },
             /*compensate=*/[bag, k] { bag->remove(k); })
      .piece("settle", [bag, k] { bag->remove(k); })  // final piece: exempt
      .run();
}

void registered_site_piece(Bag* bag, long k, long v) {
  atomos::chopped()
      .piece("insert",
             [bag, k, v] {
               atomos::compensation_run(0, bag);
               bag->put(k, v);  // attributed: site registered in the body
             })
      .piece("read", [bag, k] { (void)bag->get(k); })
      .run();
}

void read_only_pieces(Bag* bag, long k) {
  atomos::chopped()
      .piece("probe", [bag, k] { (void)bag->get(k); })
      .piece("audit", [bag, k] { (void)bag->get(k + 1); })
      .run();
}

}  // namespace demo
