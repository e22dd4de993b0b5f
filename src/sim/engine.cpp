#include "sim/engine.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/vaddr.h"

namespace sim {

namespace {
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
}

Engine::Engine(const Config& cfg)
    : cfg_(cfg),
      stats_(cfg.num_cpus),
      mem_(cfg_, stats_),
      cpus_(static_cast<std::size_t>(cfg.num_cpus)),
      user_(static_cast<std::size_t>(cfg.num_cpus), nullptr) {
  if (cfg.num_cpus < 1 || cfg.num_cpus > Config::kMaxCpus)
    throw std::invalid_argument("Engine: num_cpus must be in [1,128]");
  if ((cfg.deadline_poll_mask & (cfg.deadline_poll_mask + 1)) != 0)
    throw std::invalid_argument("Engine: deadline_poll_mask must be 2^k - 1");
  for (int i = 0; i < cfg.num_cpus; ++i) cpus_[static_cast<std::size_t>(i)].id_ = i;
  runq_.reserve(static_cast<std::size_t>(cfg.num_cpus));
  // Each simulation lays out its Shared cells / lock words from the same
  // arena bases, making cycle totals independent of host memory layout.
  // Passing `this` stamps the calling thread's cursors with their owner so
  // cross-thread construction (which would alias addresses) is detectable.
  va_reset(this);
  detail::va_live_engines.fetch_add(1, std::memory_order_relaxed);
}

Engine::~Engine() {
  // If run() was abandoned with live fibers (e.g. an exception inside the
  // scheduler), unwind them so their RAII state is released.
  kill_all_suspended();
  detail::va_live_engines.fetch_sub(1, std::memory_order_relaxed);
  va_owner_destroyed(this);
}

void Engine::kill_all_suspended() {
  // Keep resuming until every fiber has unwound: a fiber may yield again
  // while unwinding (e.g. an abort path charging backoff cycles crosses the
  // run limit), in which case one resume is not enough.
  poisoned_ = true;
  bool any_live;
  do {
    any_live = false;
    for (Cpu& c : cpus_) {
      if (c.fiber_ != nullptr && !c.fiber_->finished()) {
        any_live = true;
        current_cpu_ = c.id_;
        c.fiber_->resume();  // wakes in yield_now()/block(), throws FiberKilled
        current_cpu_ = -1;
        if (c.fiber_->finished()) c.state_ = Cpu::State::kDone;
      }
    }
  } while (any_live);
  poisoned_ = false;
}

void Engine::spawn(std::function<void()> work) {
  if (running_) throw std::logic_error("Engine::spawn during run()");
  if (work_.size() >= cpus_.size())
    throw std::logic_error("Engine::spawn: more workers than virtual CPUs");
  work_.push_back(std::move(work));
}

// Min-heap over (clock, id): exactly the total order the original linear
// scan's strict `<` comparisons induced (first minimum wins = lowest id
// among clock ties).  Keys are unique — at most one entry per CPU.
void Engine::runq_push(RunqEntry e) {
  std::size_t i = runq_.size();
  runq_.push_back(e);
  while (i > 0) {
    const std::size_t p = (i - 1) / 2;
    const RunqEntry pe = runq_[p];
    if (runq_before(pe, e)) break;
    runq_[i] = pe;
    i = p;
  }
  runq_[i] = e;
}

Engine::RunqEntry Engine::runq_pop() {
  const RunqEntry top = runq_[0];
  const RunqEntry last = runq_.back();
  runq_.pop_back();
  const std::size_t n = runq_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t l = 2 * i + 1;
      if (l >= n) break;
      std::size_t m = l;
      const std::size_t r = l + 1;
      if (r < n && runq_before(runq_[r], runq_[l])) m = r;
      const RunqEntry me = runq_[m];
      if (runq_before(last, me)) break;
      runq_[i] = me;
      i = m;
    }
    runq_[i] = last;
  }
  return top;
}

void Engine::run() {
  if (running_) throw std::logic_error("Engine::run re-entered");
  if (work_.empty()) return;
  running_ = true;
  Engine* prev = tls_engine_;
  tls_engine_ = this;
  deadline_hit_ = false;
  deadline_poll_ = 0;
  runq_.clear();

  for (std::size_t i = 0; i < work_.size(); ++i) {
    Cpu& c = cpus_[i];
    const int id = static_cast<int>(i);
    c.state_ = Cpu::State::kRunnable;
    c.fiber_ = std::make_unique<Fiber>([this, id] { worker_main(id); });
    if (hook_ == nullptr) runq_push(RunqEntry{c.clock_, id});
  }

  // With no hook installed, almost all scheduling decisions happen on the
  // fibers themselves (yield_now/block pop the runq and transfer directly);
  // control only returns here when a fiber finishes, when nothing is
  // runnable, or when the host deadline tripped.  With a hook installed,
  // every decision is made here so the hook sees the full runnable set.
  for (;;) {
    if (deadline_hit_ ||
        (host_deadline_armed_ &&
         (++deadline_poll_ & cfg_.deadline_poll_mask) == 0 &&
         std::chrono::steady_clock::now() > host_deadline_)) {
      kill_all_suspended();
      tls_engine_ = prev;
      running_ = false;
      throw SimTimeout("Engine: host wall-clock deadline exceeded");
    }
    int next = -1;
    std::uint64_t second = kNever;
    if (hook_ == nullptr) {
      // Indexed path: the runq holds every runnable CPU (fibers re-insert
      // themselves before yielding to main), so pop = min and the new top
      // is the second-smallest runnable clock.
      if (!runq_.empty()) {
        const RunqEntry e = runq_pop();
        next = e.id;
        if (!runq_.empty()) second = runq_[0].clock;
      }
    } else {
      // Hook mode: one pass finds both the min-clock runnable CPU (runs
      // next) and the second-smallest runnable clock (its run limit).
      std::uint64_t best = kNever;
      for (const Cpu& c : cpus_) {
        if (c.state_ != Cpu::State::kRunnable) continue;
        if (c.clock_ < best) {
          second = best;
          best = c.clock_;
          next = c.id_;
        } else if (c.clock_ < second) {
          second = c.clock_;
        }
      }
    }
    if (next < 0) {
      bool any_blocked = false;
      bool all_done = true;
      for (const Cpu& c : cpus_) {
        if (c.state_ == Cpu::State::kBlocked) any_blocked = true;
        if (c.state_ != Cpu::State::kDone && c.state_ != Cpu::State::kIdle) all_done = false;
      }
      if (all_done) break;
      if (any_blocked) {
        kill_all_suspended();
        tls_engine_ = prev;
        running_ = false;
        throw std::runtime_error("Engine: virtual deadlock (all CPUs blocked)");
      }
      break;
    }
    Cpu* chosen = &cpus_[static_cast<std::size_t>(next)];
    run_limit_ = second;
    if (hook_ != nullptr) {
      // Present the runnable set (ascending ids) and let the hook override
      // both the choice and the quantum.  kUseDefault keeps the min-clock
      // choice and limit computed above — bit-identical to no hook.
      runnable_scratch_.clear();
      for (const Cpu& c : cpus_) {
        if (c.state_ == Cpu::State::kRunnable) runnable_scratch_.push_back(c.id_);
      }
      const int picked = hook_->pick(runnable_scratch_);
      if (picked != SchedulerHook::kUseDefault) {
        if (picked < 0 || picked >= static_cast<int>(cpus_.size()) ||
            cpus_[static_cast<std::size_t>(picked)].state_ != Cpu::State::kRunnable) {
          kill_all_suspended();
          tls_engine_ = prev;
          running_ = false;
          throw std::logic_error("Engine: scheduler hook picked a non-runnable CPU");
        }
        chosen = &cpus_[static_cast<std::size_t>(picked)];
        next = picked;
        // One-quantum budget: the fiber yields at its next clock advance,
        // handing the next interleaving decision back to the hook.
        run_limit_ = chosen->clock_;
      }
    }
    Cpu& c = *chosen;
    // With a host deadline armed, never hand a fiber an unbounded budget: a
    // sole runnable fiber spinning in tick() would otherwise never reach a
    // scheduling point where the deadline is polled.  Capping the limit
    // only inserts extra yields — simulated clocks are unaffected.
    if (host_deadline_armed_) {
      const std::uint64_t quantum = c.clock_ + cfg_.deadline_quantum;
      if (quantum < run_limit_) run_limit_ = quantum;
    }
    current_cpu_ = next;
    c.fiber_->resume();
    // With direct fiber->fiber transfers, the fiber that comes back to main
    // need not be the one resumed: current_cpu_ names whoever ran last.
    Cpu& ran = cpus_[static_cast<std::size_t>(current_cpu_)];
    current_cpu_ = -1;
    if (ran.fiber_->finished()) ran.state_ = Cpu::State::kDone;
  }

  tls_engine_ = prev;
  running_ = false;
}

void Engine::worker_main(int cpu) { work_[static_cast<std::size_t>(cpu)](); }

std::uint64_t Engine::elapsed_cycles() const {
  std::uint64_t m = 0;
  for (const Cpu& c : cpus_)
    if (c.clock_ > m) m = c.clock_;
  return m;
}

void Engine::yield_now() {
  if (poisoned_) throw FiberKilled{};
  if (hook_ != nullptr) {
    // Hook mode: hand every decision to run()'s loop.
    Fiber::yield();
    if (poisoned_) throw FiberKilled{};
    return;
  }
  // Host-deadline poll, amortized over scheduling decisions.  On expiry,
  // run() unwinds every fiber and throws SimTimeout; re-insert ourselves so
  // the runq invariant holds regardless.
  if (host_deadline_armed_ &&
      (++deadline_poll_ & cfg_.deadline_poll_mask) == 0 &&
      std::chrono::steady_clock::now() > host_deadline_) {
    Cpu& self = cpus_[static_cast<std::size_t>(current_cpu_)];
    deadline_hit_ = true;
    runq_push(RunqEntry{self.clock_, self.id_});
    Fiber::yield();
    if (poisoned_) throw FiberKilled{};
    return;
  }
  // The scheduling fast path: re-insert self, take the (clock, id)-minimum
  // runnable CPU, and hand the host thread straight to its fiber — one
  // context switch per decision, no trip through the main context.
  Cpu& self = cpus_[static_cast<std::size_t>(current_cpu_)];
  runq_push(RunqEntry{self.clock_, self.id_});
  const RunqEntry e = runq_pop();
  const std::uint64_t second = runq_.empty() ? kNever : runq_[0].clock;
  set_run_limit(e.clock, second);
  if (e.id == current_cpu_) return;  // still the minimum: keep running
  current_cpu_ = e.id;
  Fiber::transfer_to(*cpus_[static_cast<std::size_t>(e.id)].fiber_);
  if (poisoned_) throw FiberKilled{};
}

void Engine::throw_no_engine() {
  throw std::logic_error("Engine::get: no active simulation");
}

void Engine::block() {
  if (poisoned_) throw FiberKilled{};
  Cpu& self = cpus_[static_cast<std::size_t>(current_cpu_)];
  self.state_ = Cpu::State::kBlocked;
  if (hook_ == nullptr && !runq_.empty()) {
    // Someone else is runnable: dispatch them directly (we hold no runq
    // entry — ours was popped when we were scheduled).
    const RunqEntry e = runq_pop();
    const std::uint64_t second = runq_.empty() ? kNever : runq_[0].clock;
    set_run_limit(e.clock, second);
    current_cpu_ = e.id;
    Fiber::transfer_to(*cpus_[static_cast<std::size_t>(e.id)].fiber_);
  } else {
    Fiber::yield();  // run() decides: hook consult, completion, or deadlock
  }
  if (poisoned_) throw FiberKilled{};
  // Rescheduled: unblock() made us runnable and set our clock.
}

void Engine::unblock(int cpu, std::uint64_t at) {
  Cpu& c = cpus_[static_cast<std::size_t>(cpu)];
  if (c.state_ != Cpu::State::kBlocked)
    throw std::logic_error("Engine::unblock: target CPU is not blocked");
  c.state_ = Cpu::State::kRunnable;
  if (at > c.clock_) c.clock_ = at;
  if (hook_ == nullptr) runq_push(RunqEntry{c.clock_, c.id_});
  // The woken CPU may now be the global minimum: tighten our run limit so the
  // current fiber yields promptly and ordering stays exact.
  if (c.clock_ < run_limit_) run_limit_ = c.clock_;
}

}  // namespace sim
