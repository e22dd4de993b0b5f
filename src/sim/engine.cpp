#include "sim/engine.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "sim/vaddr.h"

namespace sim {

namespace {
const Config& validated(const Config& cfg) {
  if (cfg.num_cpus < 1 || cfg.num_cpus > Config::kMaxCpus)
    throw std::invalid_argument("Engine: num_cpus must be in [1,128]");
  return cfg;
}
}  // namespace

Engine::Engine(const Config& cfg)
    : cfg_(validated(cfg)),
      stats_(cfg.num_cpus),
      mem_(cfg_, stats_),
      cpus_(static_cast<std::size_t>(cfg.num_cpus)),
      runq_(cfg.num_cpus) {
  for (int i = 0; i < cfg.num_cpus; ++i) cpus_[static_cast<std::size_t>(i)].id_ = i;
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

void Engine::run() {
  if (running_) throw std::logic_error("Engine::run re-entered");
  if (work_.empty()) return;
  running_ = true;
  // Every exit from run() comes through here: completion, virtual deadlock,
  // clock overflow, SimTimeout, a bad pick or an exception out of pick().
  struct Cleanup {
    Engine& eng;
    Engine* prev;
    ~Cleanup() {
      eng.kill_all_suspended();
      tls_engine_ = prev;
      eng.running_ = false;
    }
  } cleanup{*this, tls_engine_};
  tls_engine_ = this;
  via_main_ = hook_ != nullptr;
  overflow_cpu_ = -1;
  deadline_hit_ = false;
  deadline_poll_ = 0;
  runq_.clear();

  for (std::size_t i = 0; i < work_.size(); ++i) {
    Cpu& c = cpus_[i];
    const int id = static_cast<int>(i);
    c.state_ = Cpu::State::kRunnable;
    c.fiber_ = std::make_unique<Fiber>([this, id] { worker_main(id); });
    enqueue(c);
  }

  // With no hook installed, almost all scheduling decisions happen on the
  // fibers themselves (yield_now/block take the runq minimum and transfer
  // directly); control only returns here when a fiber finishes, when nothing
  // is runnable, or when the run must stop.  With a hook installed, every
  // decision is made here so the hook sees the full runnable set.
  for (;;) {
    if (overflow_cpu_ >= 0) {
      throw std::overflow_error("Engine: CPU " + std::to_string(overflow_cpu_) +
                                " clock reached 2^57 - 1 cycles, past the runq key");
    }
    if (deadline_expired()) throw SimTimeout("Engine: host wall-clock deadline exceeded");
    const std::uint64_t top = runq_.min();
    if (top == RunTree::kEmpty) {
      for (const Cpu& c : cpus_) {
        if (c.state_ == Cpu::State::kBlocked)
          throw std::runtime_error("Engine: virtual deadlock (all CPUs blocked)");
      }
      break;
    }
    int next = RunTree::id_of(top);
    int picked = SchedulerHook::kUseDefault;
    if (hook_ != nullptr) {
      // Present the runnable set (ascending ids) and let the hook override
      // both the choice and the quantum.  kUseDefault keeps the runq's
      // choice and limit — the no-hook schedule by construction.
      runq_.queued_ids(runnable_scratch_);
      picked = hook_->pick(runnable_scratch_);
      if (picked != SchedulerHook::kUseDefault) {
        if (picked < 0 || picked >= static_cast<int>(cpus_.size()) || !runq_.queued(picked))
          throw std::logic_error("Engine: scheduler hook picked a non-runnable CPU");
        next = picked;
      }
    }
    Cpu& c = cpus_[static_cast<std::size_t>(next)];
    if (picked == SchedulerHook::kUseDefault) {
      take_top(top);
    } else {
      // One-quantum budget: the fiber yields at its next clock advance,
      // handing the next interleaving decision back to the hook.
      runq_.set(next, RunTree::kEmpty);
      set_run_limit(c.clock_, c.clock_);
    }
    current_cpu_ = next;
    c.fiber_->resume();
    // With direct fiber->fiber transfers, the fiber that comes back to main
    // need not be the one resumed: current_cpu_ names whoever ran last.
    Cpu& ran = cpus_[static_cast<std::size_t>(current_cpu_)];
    current_cpu_ = -1;
    if (ran.fiber_->finished()) ran.state_ = Cpu::State::kDone;
  }
}

void Engine::worker_main(int cpu) {
  // A fiber first activated by kill_all_suspended() has nothing to unwind:
  // it must not start its work.
  if (!poisoned_) work_[static_cast<std::size_t>(cpu)]();
}

std::uint64_t Engine::elapsed_cycles() const {
  std::uint64_t m = 0;
  for (const Cpu& c : cpus_)
    if (c.clock_ > m) m = c.clock_;
  return m;
}

void Engine::yield_now() {
  if (poisoned_) throw FiberKilled{};
  Cpu& self = cpus_[static_cast<std::size_t>(current_cpu_)];
  if (!via_main_ && !deadline_expired() && self.clock_ < RunTree::kClockLimit) {
    // The scheduling fast path.  Still below the runq minimum: keep running
    // and touch nothing.  Otherwise queue self, take the minimum and hand
    // the host thread straight to its fiber — one context switch per
    // decision, no trip through the main context.
    const std::uint64_t key = RunTree::key(self.clock_, self.id_);
    const std::uint64_t top = runq_.min();
    if (key < top) {
      set_run_limit(self.clock_, RunTree::clock_of(top));
      return;
    }
    runq_.set(self.id_, key);
    take_top(top);
    current_cpu_ = RunTree::id_of(top);
    Fiber::transfer_to(*cpus_[static_cast<std::size_t>(current_cpu_)].fiber_);
  } else {
    // run() decides: a hook consult, the expired deadline or the overflow.
    enqueue(self);
    Fiber::yield();
  }
  if (poisoned_) throw FiberKilled{};
}

void Engine::throw_no_engine() {
  throw std::logic_error("Engine::get: no active simulation");
}

void Engine::block() {
  if (poisoned_) throw FiberKilled{};
  cpus_[static_cast<std::size_t>(current_cpu_)].state_ = Cpu::State::kBlocked;
  const std::uint64_t top = runq_.min();
  if (!via_main_ && top != RunTree::kEmpty) {
    // Someone else is runnable: dispatch them directly.
    take_top(top);
    current_cpu_ = RunTree::id_of(top);
    Fiber::transfer_to(*cpus_[static_cast<std::size_t>(current_cpu_)].fiber_);
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
  enqueue(c);
  // The woken CPU may now be the global minimum: tighten our run limit so the
  // current fiber yields promptly and ordering stays exact.
  if (c.clock_ < run_limit_) run_limit_ = c.clock_;
}

}  // namespace sim
