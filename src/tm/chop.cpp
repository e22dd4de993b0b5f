#include "tm/chop.h"

#include <exception>

namespace atomos {

void Chop::run() {
  if (pieces_.empty()) return;
  Runtime& rt = Runtime::current();
  if (rt.mode() == sim::Mode::kLock || !sim::Engine::in_worker()) {
    for (auto& p : pieces_) p.body();
    return;
  }
  if (rt.in_txn()) {
    // Inside an enclosing transaction the pieces cannot commit early; they
    // degrade to closed-nested frames and the enclosing commit/abort covers
    // them (compensations are unnecessary: nothing committed yet).
    for (auto& p : pieces_) rt.atomically(p.body);
    return;
  }
  const int cpu = rt.engine().cpu_id();
  detail::ChopState st;
  // Compensations of pieces committed in this round, in commit order; the
  // shared handler machinery runs them newest-first.
  std::vector<std::function<void()>> committed_comps;
  for (;;) {
    st.reset();
    committed_comps.clear();
    rt.chop_begin(cpu, &st);
    bool restart = false;
    try {
      for (std::size_t i = 0; i < pieces_.size(); ++i) {
        // Piece boundary: a foreign commit has touched an earlier piece's
        // footprint.  kRanked trusts the declared rank order and only
        // counts it; kValidated undoes the chop and starts over.
        if (st.broken) {
          st.broken = false;
          if (policy_ == ChopPolicy::kValidated) {
            restart = true;
            break;
          }
        }
        rt.atomically(pieces_[i].body);
        if (pieces_[i].compensate) committed_comps.push_back(pieces_[i].compensate);
      }
    } catch (...) {
      // A piece body escaped (user exception / engine teardown): the chop
      // is semantically all-or-nothing, so undo the committed prefix in
      // reverse before propagating.  A compensation failure must not mask
      // the original exception.
      rt.chop_end(cpu);
      rt.chop_stats_.dep_breaks += st.breaks;
      rt.chop_stats_.compensations += committed_comps.size();
      (void)rt.run_compensation_handlers(cpu, rt.make_scope_id(cpu), committed_comps);
      throw;
    }
    rt.chop_end(cpu);
    rt.chop_stats_.dep_breaks += st.breaks;
    if (!restart) break;
    ++rt.chop_stats_.restarts;
    rt.chop_stats_.compensations += committed_comps.size();
    std::exception_ptr fail =
        rt.run_compensation_handlers(cpu, rt.make_scope_id(cpu), committed_comps);
    if (fail) std::rethrow_exception(fail);
    // Pay the violation penalty before re-running: a restart is the chop
    // analogue of an abort, and a zero-cost retry loop would both distort
    // the figures and let an unlucky chop spin without yielding the CPU.
    rt.engine().tick(sim::Config::kViolationCycles);
  }
  ++rt.chop_stats_.chops;
}

}  // namespace atomos
