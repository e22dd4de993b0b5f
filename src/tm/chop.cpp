#include "tm/chop.h"

namespace atomos {

void Chop::run() {
  if (pieces_.empty()) return;
  Runtime& rt = Runtime::current();
  if (rt.mode() == sim::Mode::kLock || !sim::Engine::in_worker()) {
    for (auto& p : pieces_) p.body();
    return;
  }
  if (rt.in_txn()) {
    // Inside an enclosing transaction the pieces cannot commit early; each
    // runs inline as a nested atomically, and the enclosing commit/abort
    // covers them (compensations are unnecessary: nothing committed yet).
    for (auto& p : pieces_) rt.atomically(p.body);
    return;
  }
  const int cpu = rt.engine().cpu_id();
  detail::ChopState st;
  // Compensations of the committed pieces, in commit order; the shared
  // handler machinery runs them newest-first.
  std::vector<std::function<void()>> committed_comps;
  rt.chop_begin(cpu, &st);
  try {
    for (auto& p : pieces_) {
      rt.atomically(p.body);
      if (p.compensate) committed_comps.push_back(p.compensate);
    }
  } catch (...) {
    // A piece body escaped (user exception / engine teardown): the chop
    // is semantically all-or-nothing, so undo the committed prefix in
    // reverse before propagating.  A compensation failure must not mask
    // the original exception.
    rt.chop_end(cpu);
    rt.chop_stats_.dep_breaks += st.breaks;
    rt.chop_stats_.compensations += committed_comps.size();
    (void)rt.run_compensation_handlers(cpu, committed_comps);
    throw;
  }
  rt.chop_end(cpu);
  rt.chop_stats_.dep_breaks += st.breaks;
  ++rt.chop_stats_.chops;
}

}  // namespace atomos
