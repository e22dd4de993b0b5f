#include "observe.h"

#include <chrono>
#include <cstdio>
#include <vector>

#include "sim/engine.h"
#include "tm/runtime.h"
#include "trace/reader.h"
#include "trace/tracer.h"

namespace perfbench {
namespace {

struct Current {
  PointObs* obs = nullptr;
  bool traced = false;
};
thread_local Current tls_current;

// Pass-through scheduler hook: always the engine's own choice (kUseDefault),
// so simulated cycles stay bit-identical.  It predicts that choice — the
// lowest (clock, id) runnable CPU — only to count switches.
class CountingHook final : public sim::SchedulerHook {
 public:
  CountingHook(const sim::Engine& eng, PointObs& obs) : eng_(eng), obs_(obs) {}

  int pick(const std::vector<int>& runnable) override {
    int next = runnable.front();
    for (const int id : runnable) {
      if (eng_.cpu_clock(id) < eng_.cpu_clock(next)) next = id;
    }
    ++obs_.decisions;
    if (next != last_) ++obs_.switches;
    last_ = next;
    return kUseDefault;
  }

 private:
  const sim::Engine& eng_;
  PointObs& obs_;
  int last_ = -1;
};

class AccessCounter final : public atomos::Runtime::McObserver {
 public:
  explicit AccessCounter(PointObs& obs) : obs_(obs) {}

  void on_access(int /*cpu*/, sim::LineAddr /*line*/, bool is_write) override {
    ++(is_write ? obs_.tm_writes : obs_.tm_reads);
  }
  void on_txn_sets(int /*cpu*/, bool committed, bool open,
                   const std::vector<sim::LineAddr>& reads,
                   const std::vector<sim::LineAddr>& writes) override {
    if (!committed || open) return;
    ++obs_.committed_txns;
    obs_.read_lines += reads.size();
    obs_.write_lines += writes.size();
  }

 private:
  PointObs& obs_;
};

// Detaches the probes on every exit from run_engine, so nothing the engine
// or runtime does while unwinding reaches a destroyed observer.
class Detach {
 public:
  Detach(sim::Engine& eng, atomos::Runtime& rt) : eng_(eng), rt_(rt) {}
  ~Detach() {
    eng_.set_scheduler_hook(nullptr);
    rt_.set_mc_observer(nullptr);
  }
  Detach(const Detach&) = delete;
  Detach& operator=(const Detach&) = delete;

 private:
  sim::Engine& eng_;
  atomos::Runtime& rt_;
};

// Clears the thread's point, its trace request and its trace file however
// the point ends.
class PointScope {
 public:
  PointScope(PointObs& obs, const Observe& how) : how_(how) {
    tls_current = Current{&obs, how.traced};
  }
  ~PointScope() {
    tls_current = Current{};
    trace::clear_request();
    if (!how_.trace_file.empty()) std::remove(how_.trace_file.c_str());
  }
  PointScope(const PointScope&) = delete;
  PointScope& operator=(const PointScope&) = delete;

 private:
  const Observe& how_;
};

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TraceTally::add(const trace::Event* ev, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    switch (static_cast<trace::Kind>(ev[i].kind)) {
      case trace::Kind::kOpenCommit: ++open_commits; break;
      case trace::Kind::kLockAcquire: ++lock_acquires; break;
      case trace::Kind::kLockBlock: ++token_waits; break;
      case trace::Kind::kHandlerRun:
        (ev[i].aux != 0 ? abort_handlers : commit_handlers) += ev[i].arg;
        break;
      case trace::Kind::kMiss: ++misses; break;
      default: break;
    }
  }
}

void observe_point(const harness::Series& inner, int cpus, std::uint64_t salt,
                   harness::RunResult& out, PointObs& obs, const Observe& how) {
  obs = PointObs{};
  obs.worker = std::this_thread::get_id();
  const PointScope scope(obs, how);
  // Set per attempt, like the driver's own --trace: the Runtime the
  // workload builds consumes the request.
  if (how.traced) trace::set_request(how.trace_file, how.trace_cap);
  obs.start = now_s();
  inner.run(cpus, salt, out);
  obs.end = now_s();
  if (how.traced && !how.trace_file.empty()) {
    const trace::TraceFile tf = trace::read_trace_file(how.trace_file);
    for (int c = 0; c < tf.num_cpus; ++c) {
      const auto& ev = tf.events[static_cast<std::size_t>(c)];
      obs.trace.add(ev.data(), ev.size());
      obs.trace.dropped += tf.dropped[static_cast<std::size_t>(c)];
    }
  }
}

void run_engine(sim::Engine& eng, atomos::Runtime& rt) {
  PointObs* obs = tls_current.obs;
  if (obs == nullptr) {
    eng.run();
    return;
  }
  obs->engine_visible = true;
  CountingHook hook(eng, *obs);
  AccessCounter counter(*obs);
  const Detach detach(eng, rt);
  if (tls_current.traced) {
    eng.set_scheduler_hook(&hook);
    rt.set_mc_observer(&counter);
  }
  const double t0 = now_s();
  obs->build_s = t0 - obs->start;
  eng.run();
  obs->run_s = now_s() - t0;
  obs->stats = eng.stats().summed();
  if (const trace::Tracer* tr = rt.tracer()) {
    for (int c = 0; c < tr->num_cpus(); ++c) {
      obs->trace.add(tr->events(c), tr->count(c));
      obs->trace.dropped += tr->dropped(c);
    }
  }
}

}  // namespace perfbench
