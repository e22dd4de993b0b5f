// Host-parallel experiment driver.
//
// Every figure in the paper's evaluation is a sweep of independent
// simulation points — (series × cpu-count × trial), each a self-contained
// deterministic Engine run.  The driver shards those points across a pool
// of host worker threads and merges the RunResults deterministically, so a
// serial run and a `--jobs N` run produce bit-identical tables, CSVs and
// simulated-cycle totals.
//
// Why this is safe: the simulator and TM layer hold no process-global
// mutable state — engines, runtimes with their tracers and label maps,
// virtual-address allocators and audit ledgers are all per-Engine,
// per-Runtime or thread_local — so concurrent points share nothing, and
// each point's simulated cycle count is a pure function of its (series,
// cpus, seed) regardless of which host thread runs it or when.
// Merging is by canonical point order (series-major, then CPU count, then
// trial), never by completion order; progress lines are released in that
// same order.
//
// Hung points: each point may be guarded by a wall-clock deadline
// (sim::Engine::set_host_deadline) enforced inside the simulation scheduler.
// A timed-out point is retried once; a second timeout (or any workload
// exception) marks the point POISONED and the sweep completes without it,
// reporting the poisoned points instead of hanging.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/speedup.h"

namespace harness {

/// Execution options for one figure sweep (see Cli for the flag spelling).
struct DriverOptions {
  int jobs = 1;             ///< host worker threads (clamped to [1, points])
  int trials = 1;           ///< runs per point; trial 0 is the unperturbed seed
  double timeout_sec = 0.0; ///< per-point wall-clock timeout; 0 = none
  std::string only;         ///< "" = all; series-name substring, or a CPU
                            ///< list like "cpus=1,8" / "1,8"
  std::string csv_path;     ///< overrides the figure's default CSV path
  std::string trace_path;   ///< "" = no tracing; else a file prefix — trial 0
                            ///< of every point writes
                            ///< `<prefix><series>_cpus<N>.trace`
  std::size_t trace_cap = 0; ///< per-CPU trace buffer capacity; 0 = default
};

/// The trace file a traced sweep writes for one (series, cpus) point:
/// `<prefix><series>_cpus<N>.trace`, with non-alphanumeric series characters
/// mapped to '_' so every series name is a portable filename.
std::string trace_file_path(const std::string& prefix, const std::string& series,
                            int cpus);

/// Cross-trial cycle statistics for one (series, cpus) point
/// (`--trials N`; trial 0 is the canonical run reported in RunResult).
struct TrialStats {
  int trials = 1;                 ///< surviving (non-poisoned) trials
  std::uint64_t cycles_min = 0;
  std::uint64_t cycles_max = 0;
  double cycles_mean = 0.0;
};

/// A point (or one of its trials) that failed both attempts.
struct PoisonedPoint {
  std::string series;
  int cpus = 0;
  int trial = 0;
  std::string error;
};

struct FigureResult {
  /// Canonical (trial-0) results in point order, poisoned points omitted.
  std::vector<RunResult> results;
  /// Parallel to `results`; all-default when trials == 1.
  std::vector<TrialStats> trial_stats;
  std::vector<PoisonedPoint> poisoned;
  double wall_seconds = 0.0;
  int jobs = 1;  ///< worker threads actually used
  bool ok() const { return poisoned.empty(); }
};

/// Runs the figure's points under `opt`, prints the paper-style speedup
/// table + stats appendix (and the trials appendix when opt.trials > 1),
/// and writes the CSV to opt.csv_path (or `default_csv` when empty; "" for
/// neither).  The FIRST surviving point — first series, first CPU count —
/// is the speedup baseline, exactly as in the serial harness.
FigureResult run_figure_driver(const std::string& figure_title,
                               const std::vector<Series>& series,
                               const std::vector<int>& cpu_counts,
                               const std::string& default_csv,
                               const DriverOptions& opt);

// ---- shared bench CLI (all five figure/ablation binaries) ----

struct Cli {
  DriverOptions opts;  ///< --jobs / --trials / --timeout / --only / --csv
  int ops = -1;        ///< --ops override; -1 = the bench's default

  /// Parses argv.  `--help` prints usage for `bench` and exits 0; an
  /// unknown flag or bad value prints usage and exits 2.
  /// `default_timeout_sec` is the per-point timeout used when the user
  /// passes no --timeout — benches with known slow points (fig4's
  /// high-contention 32-CPU runs) pass a larger default.
  static Cli parse(int argc, char** argv, const char* bench,
                   double default_timeout_sec = 120.0);
};

/// Bench-main convenience: run_figure_driver under cli.opts, then report
/// (points, jobs, wall seconds) on stderr.  Returns the process exit
/// status: 0 on success, 1 if any point was poisoned, 2 on setup errors.
int run_figure_main(const std::string& figure_title,
                    const std::vector<Series>& series,
                    const std::vector<int>& cpu_counts,
                    const std::string& default_csv, const Cli& cli);

// ---- generic named-task pool (bench/ablations) ----

/// An independent simulation task producing one printable row.
struct NamedTask {
  std::string section;  ///< table this row belongs to (printed once, in order)
  std::string name;     ///< row label; `--only` filters on section + name
  std::function<std::string()> fn;  ///< returns the formatted row
};

struct TaskRow {
  std::string section;
  std::string name;
  std::string text;     ///< fn's result ("" when poisoned)
  bool poisoned = false;
  std::string error;
};

/// Runs the tasks on the same pool machinery (jobs / timeout+retry / only
/// filter); returns rows in task order regardless of completion order.
std::vector<TaskRow> run_tasks(const std::vector<NamedTask>& tasks,
                               const DriverOptions& opt);

}  // namespace harness
