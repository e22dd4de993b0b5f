#include "tm/runtime.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <exception>

#include "tm/audit.h"

namespace atomos {

using detail::Txn;

Runtime::Runtime(sim::Engine& eng, std::unique_ptr<ContentionManager> cm)
    : eng_(eng),
      cm_(cm != nullptr ? std::move(cm) : std::make_unique<PoliteBackoff>()),
      ctx_(static_cast<std::size_t>(eng.config().num_cpus)) {
  if (tls_runtime_ != nullptr)
    throw std::logic_error("atomos::Runtime: another runtime is already active on this thread");
  tls_runtime_ = this;
  audit::begin_simulation();
  active_chops_.assign(static_cast<std::size_t>(eng.config().num_cpus), nullptr);
  // Consume a pending thread-local trace request (set by the harness driver
  // before it invokes a series body, or directly by tests/benches).  The
  // labelled Shared cells constructed after this point label the tracer.
  trace::Request req;
  if (trace::take_request(req)) {
    tracer_ = std::make_unique<trace::Tracer>(eng.config().num_cpus, req.capacity);
    trace_path_ = std::move(req.path);
    eng_.set_tracer(tracer_.get());
  }
}

Runtime::~Runtime() {
  if (tracer_ != nullptr) {
    eng_.set_tracer(nullptr);
    // The per-CPU streams must be well-nested (begin/commit/abort pairing,
    // open enter/exit balance) — a torn stream means a lost emission point.
    audit::check_trace_nesting(*tracer_);
    if (!trace_path_.empty()) {
      try {
        tracer_->write(trace_path_);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "atomos: trace write failed: %s\n", e.what());
      }
    }
  }
  // Free anything still parked in purgatory (simulation is over).
  for (auto& p : purgatory_) p.del(p.ptr);
  tls_runtime_ = nullptr;
}

void Runtime::throw_no_runtime() {
  throw std::logic_error("atomos::Runtime: none active");
}

Txn* Runtime::bottom_of(int cpu) {
  Txn* t = ctx(cpu).cur;
  if (t == nullptr) return nullptr;
  while (t->parent != nullptr) t = t->parent;
  return t;
}

bool Runtime::in_txn() {
  return sim::Engine::in_worker() && ctx(eng_.cpu_id()).cur != nullptr;
}

TxnId Runtime::self_id() {
  Txn* b = bottom_of(eng_.cpu_id());
  if (b == nullptr) throw std::logic_error("atomos::self_id: not inside a transaction");
  return TxnId{b->cpu, b->incarnation};
}

Txn* Runtime::live_top(const TxnId& id) {
  if (id.cpu < 0 || id.cpu >= eng_.config().num_cpus) return nullptr;
  Txn* found = nullptr;
  for_each_live_txn(id.cpu, [&](Txn* t) {
    if (t->parent == nullptr && t->incarnation == id.incarnation) found = t;
  });
  return found;
}

bool Runtime::violate(const TxnId& victim) {
  Txn* b = live_top(victim);
  if (b == nullptr) return false;
  if (eng_.cpu_id() == victim.cpu) return false;  // never self-violate
  b->killed = true;
  b->kill_semantic = true;
  return true;
}

Txn* Runtime::begin_txn(int cpu, bool open, int attempt) {
  CpuCtx& c = ctx(cpu);
  check_kill(cpu);  // do not start children under a doomed ancestor
  Txn* t;
  if (!c.pool.empty()) {
    t = c.pool.back();
    c.pool.pop_back();
  } else {
    t = c.owned.emplace_back(std::make_unique<Txn>()).get();
  }
  assert(open || c.cur == nullptr);  // a nested atomically runs inline
  t->reset(cpu, c.next_incarnation++, next_epoch_++, open, c.cur, eng_.now(), attempt);
  c.cur = t;
  if (tracer_ != nullptr)
    tracer_->on_txn_begin(cpu, eng_.now(), open, t->incarnation, attempt);
  eng_.tick(sim::Config::kTxnBeginCycles);
  return t;
}

void Runtime::release_txn(Txn* t) {
  // Destroy captured state promptly (handlers can pin user objects); the
  // plain-data logs keep their capacity for the next incarnation.
  t->commit_handlers.clear();
  t->abort_handlers.clear();
  t->top_commit_handlers.clear();
  t->top_abort_handlers.clear();
  ctx(t->cpu).pool.push_back(t);
}

Violated Runtime::count_violation(int cpu, Txn* flagged) {
  // Note: abort-handler (compensation) transactions are NOT exempt — they
  // run detached (their doomed ancestors are unreachable from ctx.cur), and
  // their own memory conflicts must retry like any other transaction's.
  ctx(cpu).doom_reported = false;
  auto& st = eng_.stats().cpu(cpu);
  if (flagged->kill_semantic) st.semantic_violations++;
  if (flagged->open) {
    st.nested_violations++;
  } else {
    st.violations++;
  }
  return Violated{flagged};
}

void Runtime::throw_violation(int cpu, Txn* flagged) {
  throw count_violation(cpu, flagged);
}

// ---- handlers ----

void Runtime::add_commit_handler(std::function<void()> h) {
  if (mode() == sim::Mode::kLock || !sim::Engine::in_worker()) {
    h();  // no speculation: "commit" is immediate
    return;
  }
  Txn* t = ctx(eng_.cpu_id()).cur;
  if (t == nullptr) {
    h();
    return;
  }
  t->commit_handlers.push_back(std::move(h));
}

void Runtime::on_abort(std::function<void()> h) {
  if (mode() == sim::Mode::kLock || !sim::Engine::in_worker()) return;  // cannot abort
  Txn* t = ctx(eng_.cpu_id()).cur;
  if (t == nullptr) return;
  t->abort_handlers.push_back(std::move(h));
}

void Runtime::add_top_commit_handler(const void* owner, std::function<void()> h,
                                     std::function<bool()> needs_token) {
  if (mode() == sim::Mode::kLock || !sim::Engine::in_worker()) {
    h();
    return;
  }
  Txn* b = bottom_of(eng_.cpu_id());
  if (b == nullptr) {
    h();
    return;
  }
  for (const auto& th : b->top_commit_handlers) {
    if (th.owner == owner)
      throw std::logic_error(
          "atomos::on_top_commit: this owner already registered a handler pair "
          "on the current top-level transaction");
  }
  b->top_commit_handlers.push_back(
      detail::Txn::TopCommitHandler{owner, std::move(h), std::move(needs_token)});
}

void Runtime::on_top_abort(std::function<void()> h) {
  if (mode() == sim::Mode::kLock || !sim::Engine::in_worker()) return;
  Txn* b = bottom_of(eng_.cpu_id());
  if (b == nullptr) return;
  b->top_abort_handlers.push_back(std::move(h));
}

// ---- commit / abort ----

void Runtime::acquire_token(int cpu) {
  if (token_owner_ == cpu) {
    token_depth_++;
    return;
  }
  if (token_owner_ != -1 && tracer_ != nullptr)
    tracer_->on_lock_block(cpu, eng_.now(), token_owner_);
  while (token_owner_ != -1) {
    token_queue_.push_back(cpu);
    eng_.block();
    if (token_owner_ == cpu) {
      token_depth_ = 1;
      return;
    }
  }
  token_owner_ = cpu;
  token_depth_ = 1;
}

void Runtime::release_token([[maybe_unused]] int cpu) {
  assert(token_owner_ == cpu);
  if (--token_depth_ > 0) return;
  token_owner_ = -1;
  if (!token_queue_.empty()) {
    const int next = token_queue_.front();
    token_queue_.pop_front();
    token_owner_ = next;
    token_depth_ = 0;  // the waiter sets its own depth on wake
    eng_.unblock(next, eng_.now());
  }
}

/// Flags every transaction (other than the committer's CPU's own) that has
/// `line` in a live read set.  The reader directory narrows the scan to
/// CPUs whose bit is set, so a commit costs O(write lines x reader bits).  A
/// CPU where no transaction holds the line any more, set-aside stacks
/// included, loses its bit here: the read that set it has ended.
void Runtime::flag_readers(sim::LineAddr line, int committer) {
  reader_dir_.for_each_reader_except(line, committer, [&](int c) {
    bool held = false;
    for_each_live_txn(c, [&](Txn* v) {
      if (v->read_set.find(line) == nullptr) return;
      held = true;
      v->killed = true;
      if (tracer_ != nullptr) tracer_->on_violation_flag(committer, eng_.now(), line, c);
    });
    if (!held) reader_dir_.clear(line, c);
  });
}

void Runtime::broadcast_and_apply(Txn& t) {
  // Drain the write set as line runs with no hash probes on the commit
  // path, so each distinct directory line is broadcast (invalidate + flag)
  // exactly once.  Typical write sets are a handful of entries whose
  // neighbours share a line, so the small-set path dedups with a scan of
  // the (cache-resident) gathered lines; past that the cost flips and a
  // sort + unique run wins.  Line order within a broadcast is
  // timing-irrelevant: the commit is charged up front as one bus
  // occupancy, and reader flagging only sets flags, which is
  // order-independent.
  constexpr std::size_t kSortedDrainThreshold = 32;
  scratch_lines_.clear();
  if (t.writes.size() <= kSortedDrainThreshold) {
    for (const auto& w : t.writes) {
      const sim::LineAddr line = sim::line_of(w.addr);
      if (!scratch_lines_.empty() && scratch_lines_.back() == line) continue;
      bool seen = false;
      for (const sim::LineAddr l : scratch_lines_) {
        if (l == line) {
          seen = true;
          break;
        }
      }
      if (!seen) scratch_lines_.push_back(line);
    }
  } else {
    for (const auto& w : t.writes) scratch_lines_.push_back(sim::line_of(w.addr));
    std::sort(scratch_lines_.begin(), scratch_lines_.end());
    scratch_lines_.erase(std::unique(scratch_lines_.begin(), scratch_lines_.end()),
                         scratch_lines_.end());
  }

  eng_.advance_to(eng_.memsys().tcc_commit(t.cpu, scratch_lines_.size(), eng_.now()));

  for (const sim::LineAddr line : scratch_lines_) {
    eng_.memsys().invalidate_copies(t.cpu, line);
    flag_readers(line, t.cpu);
    if (active_chop_count_ != 0) flag_chops(line, t.cpu);
  }
  // Value apply stays in log (program) order: entries are unique per
  // address, so only the line walk above needed sorting.
  for (const auto& w : t.writes) {
    std::memcpy(w.host, &w.val, w.size);
  }
}

std::optional<Violated> Runtime::commit_txn(Txn* t) {
  CpuCtx& c = ctx(t->cpu);
  assert(c.cur == t);

  // The body has returned, so a flag found here needs no unwind: each check
  // below hands the violation back to run_txn (token released) instead of
  // throwing it.  Flagged while working: abort instead of committing.
  if (Txn* f = flagged_txn(t->cpu)) return count_violation(t->cpu, f);

  // Handlers run at the bottom of the open-nesting stack only: an open
  // child's handlers transfer to its parent below (paper S4).  The commit
  // takes the token if it has writes, deletes, plain commit handlers or a
  // top handler that needs it, and then runs every handler inside it;
  // otherwise its top handlers run after it, token-free.
  const bool top = t->parent == nullptr;
  bool needs_token = !t->writes.empty() || !t->deletes.empty() ||
                     (top && !t->commit_handlers.empty());
  if (!needs_token && top) {
    for (const auto& th : t->top_commit_handlers) {
      if (!th.needs_token || th.needs_token()) {
        needs_token = true;
        break;
      }
    }
  }
  if (!needs_token && t->open && token_owner_ != -1 && token_owner_ != t->cpu) {
    // A read-only open child must not slip past an in-progress commit: its
    // semantic lock acquisitions have to be ordered either before that
    // committer's conflict detection or after its broadcast.  Waiting for
    // the token gives exactly that: if the commit wrote what we read, the
    // broadcast flags us while we wait and we abort instead.
    acquire_token(t->cpu);
    Txn* f = flagged_txn(t->cpu);
    release_token(t->cpu);
    if (f != nullptr) return count_violation(t->cpu, f);
  }
  if (needs_token) {
    acquire_token(t->cpu);
    // Last chance: flagged while queueing for the token.
    if (Txn* f = flagged_txn(t->cpu)) {
      release_token(t->cpu);
      return count_violation(t->cpu, f);
    }
    try {
      // With the token held and the logs final, the read/write sets must be
      // internally consistent before anything is broadcast (txcheck).
      audit::check_txn_sets(*t);
      audit::check_reader_dir(*t, reader_dir_);
      // Run commit handlers inside the token, each through the nested
      // atomically path: a handler that returns after work() reported its
      // transaction doomed aborts the commit.  They may register further
      // commit handlers (run too).
      if (top && (!t->commit_handlers.empty() || !t->top_commit_handlers.empty())) {
        if (tracer_ != nullptr)
          tracer_->on_handler_run(
              t->cpu, eng_.now(), /*abort_path=*/false,
              t->commit_handlers.size() + t->top_commit_handlers.size());
        for (std::size_t i = 0; i < t->commit_handlers.size(); ++i) {
          auto h = std::move(t->commit_handlers[i]);
          run_inline(t->cpu, h);
        }
        for (std::size_t i = 0; i < t->top_commit_handlers.size(); ++i) {
          auto h = std::move(t->top_commit_handlers[i].fn);
          run_inline(t->cpu, h);
        }
      }
      broadcast_and_apply(*t);
    } catch (...) {
      release_token(t->cpu);
      throw;
    }
    // Deferred deletes take effect now; reclaim once concurrent transactions
    // that may still hold host pointers have drained.
    for (const auto& d : t->deletes) {
      purgatory_.push_back(Purgatory{next_epoch_++, d.ptr, d.del});
    }
    release_token(t->cpu);
  } else if (top) {
    // Token-free cleanup path: every top handler declared itself pure
    // cleanup and there is nothing to broadcast.
    for (std::size_t i = 0; i < t->top_commit_handlers.size(); ++i) {
      auto h = std::move(t->top_commit_handlers[i].fn);
      h();
    }
  }

  // A chop piece's footprint joins the chop's forward-dependency lines
  // before anything else can run on this CPU (we are past the last possible
  // unwind; the broadcast, if any, is done).
  if (active_chop_count_ != 0) chop_note_committed_piece(*t);

  if (!t->open) {
    eng_.stats().cpu(t->cpu).commits++;
  }
  if (t->open) {
    eng_.stats().cpu(t->cpu).open_commits++;
    if (t->parent != nullptr) {
      // Open semantics: the child's handlers move to the parent; its read
      // and write dependencies are already globally committed / discarded.
      for (auto& h : t->commit_handlers) t->parent->commit_handlers.push_back(std::move(h));
      for (auto& h : t->abort_handlers) t->parent->abort_handlers.push_back(std::move(h));
    }
  }
  // Bottom of the open-nesting stack: commit handlers have run, so the
  // incarnation settles and every semantic lock it took must be gone.
  if (top) {
    report_sem({SemEvent::Kind::kSettle, TxnId{t->cpu, t->incarnation}, nullptr, nullptr});
  }
  if (tracer_ != nullptr)
    tracer_->on_txn_commit(t->cpu, eng_.now(), t->open, t->writes.size());
  notify_txn_sets(t, /*committed=*/true);
  c.cur = t->parent;
  release_txn(t);
  if (!purgatory_.empty()) collect_garbage();
  return std::nullopt;
}

void Runtime::abort_txn(Txn* t) {
  CpuCtx& c = ctx(t->cpu);
  notify_txn_sets(t, /*committed=*/false);

  eng_.memsys().abort_clear_speculative(t->cpu);
  auto& st = eng_.stats().cpu(t->cpu);
  st.lost_cycles += eng_.now() - t->start_clock;
  // Emit the abort before compensation runs: the abort handlers' detached
  // open transactions then appear after this event, keeping the per-CPU
  // stream well-nested even if a handler itself unwinds.
  if (tracer_ != nullptr)
    tracer_->on_txn_abort(t->cpu, eng_.now(), t->open,
                          eng_.now() - t->start_clock, t->attempt,
                          t->kill_semantic);

  // Destroy unpublished allocations (LIFO); cancel deferred deletes.
  for (std::size_t i = t->allocs.size(); i > 0; --i) t->allocs[i - 1].del(t->allocs[i - 1].ptr);
  t->allocs.clear();
  t->deletes.clear();

  // Pop before running compensation: abort handlers run as *detached* open
  // transactions so a doomed enclosing transaction cannot re-kill them.
  c.cur = t->parent;
  for (auto& h : t->top_abort_handlers) t->abort_handlers.push_back(std::move(h));
  std::exception_ptr first_failure;
  if (!t->abort_handlers.empty()) {
    first_failure = run_compensation_handlers(t->cpu, t->abort_handlers);
  }
  // Compensation has run, a failed one too: the incarnation settles, and
  // any semantic lock still on the books is leaked.
  if (t->parent == nullptr) {
    report_sem({SemEvent::Kind::kSettle, TxnId{t->cpu, t->incarnation}, nullptr, nullptr});
  }
  if (first_failure) {
    release_txn(t);
    std::rethrow_exception(first_failure);
  }
  const std::uint64_t penalty = sim::Config::kViolationCycles +
                                cm_->backoff_cycles(t->cpu, t->attempt);
  release_txn(t);
  eng_.tick(penalty);
}

std::exception_ptr Runtime::run_compensation_handlers(
    int cpu, std::vector<std::function<void()>>& handlers) {
  CpuCtx& c = ctx(cpu);
  if (tracer_ != nullptr)
    tracer_->on_handler_run(cpu, eng_.now(), /*abort_path=*/true, handlers.size());
  // Handlers run as *detached* open transactions: the current stack (the
  // aborted transaction's parent, or a chop between pieces) must not be
  // able to re-kill or capture them.  It is set aside, not gone: commits
  // and semantic violations still reach it (for_each_live_txn).
  c.set_aside.push_back(c.cur);
  c.cur = nullptr;
  // A compensation that unwinds (a user exception escaping its detached
  // open transaction) must not drop its *siblings*: each registered
  // compensation undoes an independent committed effect, so the rest still
  // have to run or their semantic locks and eager mutations leak.  Run
  // every handler newest-first, remember the first escape for the caller.
  std::exception_ptr first_failure;
  for (std::size_t i = handlers.size(); i > 0; --i) {
    auto h = std::move(handlers[i - 1]);
    try {
      run_txn(cpu, /*open=*/true, [&h] { h(); });
    } catch (...) {  // txlint: allow(catch-swallow) rethrown by the caller
      if (!first_failure) first_failure = std::current_exception();
    }
  }
  c.cur = c.set_aside.back();
  c.set_aside.pop_back();
  return first_failure;
}

// ---- chopping (tm/chop.h) ----

void Runtime::chop_begin(int cpu, detail::ChopState* s) {
  assert(active_chops_[static_cast<std::size_t>(cpu)] == nullptr);
  active_chops_[static_cast<std::size_t>(cpu)] = s;
  ++active_chop_count_;
}

void Runtime::chop_end(int cpu) {
  assert(active_chops_[static_cast<std::size_t>(cpu)] != nullptr);
  active_chops_[static_cast<std::size_t>(cpu)] = nullptr;
  --active_chop_count_;
}

void Runtime::flag_chops(sim::LineAddr line, int committer) {
  for (std::size_t c = 0; c < active_chops_.size(); ++c) {
    detail::ChopState* s = active_chops_[c];
    if (s == nullptr || static_cast<int>(c) == committer) continue;
    if (s->dep_lines.find(line) != nullptr) {
      ++s->breaks;
      if (tracer_ != nullptr)
        tracer_->on_violation_flag(committer, eng_.now(), line, static_cast<int>(c));
    }
  }
}

void Runtime::chop_note_committed_piece(Txn& t) {
  detail::ChopState* s = active_chops_[static_cast<std::size_t>(t.cpu)];
  if (s == nullptr || t.open) return;
  // The read set's lines, then the write lines (these may repeat per entry;
  // try_emplace dedups).
  t.read_set.for_each([s](sim::LineAddr line, bool) { s->dep_lines.try_emplace(line, 1); });
  for (const auto& w : t.writes) {
    s->dep_lines.try_emplace(sim::line_of(w.addr), 1);
  }
  ++chop_stats_.pieces;
}

void Runtime::notify_txn_sets(Txn* t, bool committed) {
  if (mc_observer_ == nullptr) return;
  // Read lines come from the read set, write lines from a sort+unique run.
  // The observer treats both as sets.
  // txmc folds only the writes; perfbench's AccessCounter counts the reads.
  mc_reads_scratch_.clear();
  mc_writes_scratch_.clear();
  t->read_set.for_each([this](sim::LineAddr line, bool) { mc_reads_scratch_.push_back(line); });
  for (const auto& w : t->writes) mc_writes_scratch_.push_back(sim::line_of(w.addr));
  std::sort(mc_writes_scratch_.begin(), mc_writes_scratch_.end());
  mc_writes_scratch_.erase(
      std::unique(mc_writes_scratch_.begin(), mc_writes_scratch_.end()),
      mc_writes_scratch_.end());
  mc_observer_->on_txn_sets(t->cpu, committed, t->open, mc_reads_scratch_, mc_writes_scratch_);
}

void Runtime::collect_garbage() {
  std::uint64_t min_active = next_epoch_;
  for (int c = 0; c < eng_.config().num_cpus; ++c) {
    for_each_live_txn(c, [&](Txn* t) { min_active = std::min(min_active, t->epoch); });
  }
  while (!purgatory_.empty() && purgatory_.front().epoch < min_active) {
    purgatory_.front().del(purgatory_.front().ptr);
    purgatory_.pop_front();
  }
}

// ---- memory access ----

void Runtime::tm_read(std::uintptr_t addr, void* out, std::uint32_t size,
                      const void* committed) {
  const int cpu = eng_.cpu_id();
  check_kill(cpu);
  eng_.advance_to(eng_.memsys().tx_load(cpu, addr, eng_.now()));
  if (mc_observer_ != nullptr) mc_observer_->on_access(cpu, sim::line_of(addr), false);
  Txn* t = ctx(cpu).cur;
  if (t == nullptr) {  // non-transactional read in Tcc mode: committed value
    std::memcpy(out, committed, size);
    return;
  }
  // Track the read line in the innermost transaction.  A first read
  // (insertion) also sets this CPU's bit in the line's reader directory,
  // which is how committers find us.
  const sim::LineAddr line = sim::line_of(addr);
  if (t->read_set.try_emplace(line, true).second) reader_dir_.add(line, cpu);
  // Read-own-writes: innermost buffered value wins, walking out through
  // enclosing (open-nesting) ancestors.  The per-transaction write summary
  // short-circuits the walk for addresses no level ever wrote.
  for (Txn* s = t; s != nullptr; s = s->parent) {
    if (!s->may_have_write(addr)) continue;
    const std::uint32_t* w = s->write_idx.find(addr);
    if (w != nullptr) {
      std::memcpy(out, &s->writes[*w].val, size);
      return;
    }
  }
  std::memcpy(out, committed, size);
}

void Runtime::tm_write(std::uintptr_t addr, const void* in, std::uint32_t size,
                       void* committed) {
  const int cpu = eng_.cpu_id();
  Txn* t = ctx(cpu).cur;
  // A store outside a transaction would publish without the commit token,
  // flagging readers that may be running commit handlers.
  if (t == nullptr)
    throw std::logic_error(
        "atomos::Shared: a worker stored to a cell outside any transaction in Tcc mode "
        "(wrap the store in atomically)");
  check_kill(cpu);
  eng_.advance_to(eng_.memsys().tx_store(cpu, addr, eng_.now()));
  if (mc_observer_ != nullptr) mc_observer_->on_access(cpu, sim::line_of(addr), true);
  std::uint64_t val = 0;
  std::memcpy(&val, in, size);
  auto [idx, inserted] = t->write_idx.try_emplace(addr, static_cast<std::uint32_t>(t->writes.size()));
  if (inserted) {
    t->writes.push_back(detail::WriteEntry{addr, committed, val, size});
    t->note_write(addr);
  } else {
    detail::WriteEntry& e = t->writes[*idx];
    e.val = val;
    e.size = size;
  }
}

// ---- transactional allocation ----

void Runtime::track_alloc(void* p, void (*del)(void*)) {
  Txn* t = ctx(eng_.cpu_id()).cur;
  assert(t != nullptr);
  t->allocs.push_back(Txn::Resource{p, del});
}

void Runtime::track_delete(void* p, void (*del)(void*)) {
  Txn* t = ctx(eng_.cpu_id()).cur;
  assert(t != nullptr);
  t->deletes.push_back(Txn::Resource{p, del});
}

}  // namespace atomos
