// Execution-driven CMP simulation engine.
//
// One worker (fiber) per virtual CPU.  The scheduler always advances the
// runnable CPU with the smallest virtual clock; because only one fiber runs
// at a time on the host, the other CPUs' clocks are frozen while it runs, so
// a CPU can safely execute until its clock passes the snapshot of the
// minimum other clock.  The interleaving of
// shared-memory events is therefore globally time-ordered and fully
// deterministic given the Config and the workload.  Clocks must stay below
// RunTree::kClockLimit (2^57 - 1 cycles); run() fails loudly past it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/config.h"
#include "sim/fiber.h"
#include "sim/memsys.h"
#include "sim/run_tree.h"
#include "sim/stats.h"

namespace sim {

/// Thrown out of Engine::run() when the host wall-clock deadline armed via
/// Engine::set_host_deadline expires.  All worker fibers have been unwound
/// (their RAII state released) before this escapes, so the caller may simply
/// destroy the Engine and retry with a fresh one — the harness driver uses
/// this for its per-point timeout instead of abandoning host threads.
struct SimTimeout : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Pluggable scheduling-decision hook (txmc's entry point into the engine).
///
/// When installed via Engine::set_scheduler_hook, pick() is consulted at
/// every scheduling decision with the runnable CPU ids in ascending order
/// (never empty).  Returning a CPU id runs that fiber for ONE quantum: its
/// run limit is pinned to its current clock, so it yields back at its next
/// timed event — the granularity a model checker needs to interleave at
/// every step.  Returning kUseDefault applies the engine's own min-clock
/// policy and run-limit computation for this decision, bit-identical to
/// running with no hook at all (the golden-cycle property regression tests
/// pin).
///
/// The hook runs on the scheduler (host) side, never on a worker fiber; it
/// must not call back into the engine's worker API.
class SchedulerHook {
 public:
  static constexpr int kUseDefault = -1;

  virtual ~SchedulerHook() = default;

  /// Chooses the next CPU to run, or kUseDefault for the engine policy.
  /// Returning an id that is not in `runnable` is a logic error.
  virtual int pick(const std::vector<int>& runnable) = 0;
};

/// One virtual CPU: clock, scheduling state, worker fiber.
class Cpu {
 public:
  enum class State : std::uint8_t { kIdle, kRunnable, kBlocked, kDone };

 private:
  friend class Engine;
  int id_ = -1;
  std::uint64_t clock_ = 0;
  State state_ = State::kIdle;
  std::unique_ptr<Fiber> fiber_;
};

/// The simulation engine.  Typical use:
///
///   sim::Config cfg;   cfg.num_cpus = 8;  cfg.mode = sim::Mode::kTcc;
///   sim::Engine eng(cfg);
///   for (int i = 0; i < 8; ++i) eng.spawn([&]{ worker(i); });
///   eng.run();
///   // eng.elapsed_cycles(), eng.stats() ...
class Engine {
 public:
  explicit Engine(const Config& cfg);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a worker on the next free virtual CPU (at most one per CPU,
  /// mirroring the paper's thread-per-CPU experiments).
  void spawn(std::function<void()> work);

  /// Runs all workers to completion.  Throws on virtual deadlock, on a
  /// clock past RunTree::kClockLimit (std::overflow_error), or SimTimeout if
  /// this thread's host deadline (set_host_deadline) expires.  However run()
  /// ends, its fibers are unwound and the thread's engine is restored.
  void run();

  /// Arms a host wall-clock deadline for simulations run()ing on the calling
  /// host thread.  When it expires, run() unwinds every worker fiber and
  /// throws SimTimeout.  The deadline is thread-local (each harness worker
  /// thread guards its own point) and sticky across Engines until cleared.
  static void set_host_deadline(std::chrono::steady_clock::time_point t) {
    host_deadline_ = t;
    host_deadline_armed_ = true;
  }
  static void clear_host_deadline() { host_deadline_armed_ = false; }

  /// Simulated duration: max CPU clock at completion.
  std::uint64_t elapsed_cycles() const;

  const Config& config() const { return cfg_; }
  Stats& stats() { return stats_; }
  MemSys& memsys() { return mem_; }

  /// Attaches/detaches the txtrace event tracer (owned by the TM runtime)
  /// to the memory system's miss events.  Pure observation: attaching a
  /// tracer never changes simulated cycles.
  void set_tracer(trace::Tracer* t) { mem_.set_tracer(t); }

  /// Installs (or clears, with nullptr) the scheduling-decision hook.  Not
  /// owned; must outlive the run.  May only change while no run is active.
  void set_scheduler_hook(SchedulerHook* h) {
    if (running_) throw std::logic_error("Engine::set_scheduler_hook during run()");
    hook_ = h;
  }

  /// Virtual clock of `cpu` (scheduler-side observation, e.g. a hook
  /// implementing its own clock-aware policy).
  std::uint64_t cpu_clock(int cpu) const {
    return cpus_[static_cast<std::size_t>(cpu)].clock_;
  }

  // ---- API usable from inside worker fibers ----

  /// The engine whose run() is active on this thread (never null inside a
  /// worker; throws otherwise).
  static Engine& get() {
    if (tls_engine_ == nullptr) throw_no_engine();
    return *tls_engine_;
  }
  /// True if a simulation is running on this thread *and* we are inside a
  /// worker fiber (as opposed to e.g. benchmark setup code).
  static bool in_worker() {
    return tls_engine_ != nullptr && tls_engine_->current_cpu_ >= 0;
  }
  /// The active engine, or nullptr outside run().  Lets hot callers (e.g.
  /// Shared<T>) pay one thread-local load instead of three.
  static Engine* current_or_null() { return tls_engine_; }
  /// True if the calling code is on a worker fiber of *this* engine.
  bool on_worker_fiber() const { return current_cpu_ >= 0; }

  /// The virtual CPU executing the calling fiber.
  int cpu_id() const { return current_cpu_; }
  std::uint64_t now() const { return cpus_[static_cast<std::size_t>(current_cpu_)].clock_; }

  /// Advances the current CPU by `cycles` of CPI-1.0 work, yielding to the
  /// scheduler if it runs past the other CPUs' progress.
  void tick(std::uint64_t cycles) {
    Cpu& c = cpus_[static_cast<std::size_t>(current_cpu_)];
    c.clock_ += cycles;
    if (c.clock_ > run_limit_) yield_now();
  }

  /// Sets the current CPU's clock to `t` (used by the TM/memory layers after
  /// a timed memory operation) and yields if ordering requires.
  void advance_to(std::uint64_t t) {
    Cpu& c = cpus_[static_cast<std::size_t>(current_cpu_)];
    if (t > c.clock_) c.clock_ = t;
    if (c.clock_ > run_limit_) yield_now();
  }

  /// Blocks the current CPU until some other CPU calls unblock() on it.
  void block();

  /// Makes `cpu` runnable again; its clock is advanced to at least `at`
  /// (typically the waker's current time).
  void unblock(int cpu, std::uint64_t at);

 private:
  void worker_main(int cpu);
  void yield_now();  // out-of-line: scheduling decision + fiber switch
  void kill_all_suspended();
  [[noreturn]] static void throw_no_engine();

  /// Queues runnable `c` on the runq.  A clock that does not fit the key is
  /// never queued: the run is flagged and every decision goes back to run(),
  /// which fails it.
  void enqueue(const Cpu& c) {
    if (c.clock_ >= RunTree::kClockLimit) [[unlikely]] {
      overflow_cpu_ = c.id_;
      via_main_ = true;
      run_limit_ = 0;
      return;
    }
    runq_.set(c.id_, RunTree::key(c.clock_, c.id_));
  }
  /// Dequeues the runq's minimum, `top`, and gives it the run budget up to
  /// the next queued clock.
  void take_top(std::uint64_t top) {
    runq_.set(RunTree::id_of(top), RunTree::kEmpty);
    set_run_limit(RunTree::clock_of(top), RunTree::clock_of(runq_.min()));
  }
  /// Run budget for a fiber at `clock` given the next runnable clock
  /// `second`: `second` itself, quantum-capped when a host deadline is armed
  /// so spinning fibers keep returning to the scheduler.
  void set_run_limit(std::uint64_t clock, std::uint64_t second) {
    run_limit_ = second;
    if (host_deadline_armed_) {
      const std::uint64_t quantum = clock + Config::kDeadlineQuantum;
      if (quantum < run_limit_) run_limit_ = quantum;
    }
  }
  /// Counts one scheduling decision against the host deadline; true (and
  /// deadline_hit_ set) once it has expired.
  bool deadline_expired() {
    if (host_deadline_armed_ && (++deadline_poll_ & Config::kDeadlinePollMask) == 0 &&
        std::chrono::steady_clock::now() > host_deadline_) {
      deadline_hit_ = true;
    }
    return deadline_hit_;
  }

  inline static thread_local Engine* tls_engine_ = nullptr;
  inline static thread_local bool host_deadline_armed_ = false;
  inline static thread_local std::chrono::steady_clock::time_point host_deadline_{};

  Config cfg_;
  Stats stats_;
  MemSys mem_;
  SchedulerHook* hook_ = nullptr;
  std::vector<int> runnable_scratch_;  // reused per decision when hook_ set
  std::vector<Cpu> cpus_;
  RunTree runq_;  // every runnable CPU except the running one
  std::vector<std::function<void()>> work_;
  int current_cpu_ = -1;
  int overflow_cpu_ = -1;        // CPU whose clock outgrew the runq key
  std::uint64_t run_limit_ = 0;  // current fiber may run until clock > limit
  std::uint32_t deadline_poll_ = 0;
  bool running_ = false;
  bool via_main_ = false;      // every decision returns to run(): hook or failure
  bool poisoned_ = false;      // force every suspended fiber to unwind
  bool deadline_hit_ = false;  // fiber-side poll tripped; run() must unwind
};

}  // namespace sim
