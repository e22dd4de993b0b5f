// What the benchmark sees of one sweep point, observed from outside the
// program through its public entry points only: the wrapped
// harness::Series::run callback, timing around sim::Engine::run, a
// pass-through sim::SchedulerHook, atomos::Runtime::McObserver, the txtrace
// request (in memory, or a file where the Runtime is out of reach) and
// Engine::stats().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>

#include "harness/speedup.h"
#include "sim/stats.h"
#include "trace/events.h"

namespace sim {
class Engine;
}
namespace atomos {
class Runtime;
}

namespace perfbench {

/// Host steady-clock seconds.
double now_s();

/// txtrace event counts of one point.
struct TraceTally {
  std::uint64_t open_commits = 0;
  std::uint64_t lock_acquires = 0;    ///< semantic-lock acquisitions
  std::uint64_t token_waits = 0;      ///< commit-token arbitration waits
  std::uint64_t commit_handlers = 0;  ///< handlers run on the commit path
  std::uint64_t abort_handlers = 0;   ///< handlers run on the abort path
  std::uint64_t misses = 0;           ///< L1 misses
  std::uint64_t dropped = 0;          ///< events lost to a full buffer

  void add(const trace::Event* ev, std::size_t n);
};

struct PointObs {
  double start = 0.0;  ///< now_s() at the wrapped Series::run entry
  double end = 0.0;    ///< now_s() at its return
  std::thread::id worker;

  /// True where the benchmark builds the Engine itself (jbb, collections);
  /// srv points are built inside srv::run_server, out of reach.
  bool engine_visible = false;
  double build_s = 0.0;  ///< Series::run entry to Engine::run
  double run_s = 0.0;    ///< Engine::run
  sim::CpuStats stats;

  // Traced sweep only.
  std::uint64_t decisions = 0;  ///< scheduling decisions (SchedulerHook::pick)
  std::uint64_t switches = 0;   ///< decisions that moved to another CPU
  std::uint64_t tm_reads = 0;
  std::uint64_t tm_writes = 0;
  std::uint64_t committed_txns = 0;  ///< committed top-level transactions seen
  std::uint64_t read_lines = 0;      ///< their read-set lines, summed
  std::uint64_t write_lines = 0;     ///< their write-set lines, summed
  TraceTally trace;
};

/// How the wrapper observes a point.
struct Observe {
  bool traced = false;  ///< attach the hook, observer and tracer
  /// Non-empty for points whose Runtime is out of reach: the tracer writes
  /// here and the wrapper tallies the file after the point.
  std::string trace_file;
  std::size_t trace_cap = 0;
};

/// Runs `inner` as one point under `how`, filling `obs`.  The point's
/// workload calls run_engine() for the parts only it can reach.
void observe_point(const harness::Series& inner, int cpus, std::uint64_t salt,
                   harness::RunResult& out, PointObs& obs, const Observe& how);

/// Engine::run for the point running on this host thread: times it and, in
/// a traced sweep, counts decisions, switches and TM accesses and tallies the
/// runtime's in-memory tracer.  A plain eng.run() outside observe_point.
void run_engine(sim::Engine& eng, atomos::Runtime& rt);

}  // namespace perfbench
