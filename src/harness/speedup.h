// Benchmark harness types: one simulated measurement (RunResult), a named
// workload series (Series) that the figure driver in harness/driver.h sweeps
// across CPU counts (speedup baseline = the first series' 1-CPU run), and the
// JSON writer for host wall-clock microbenchmarks.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/engine.h"
#include "sim/stats.h"

namespace harness {

/// One simulation measurement.
struct RunResult {
  std::string series;
  int cpus = 0;
  std::uint64_t cycles = 0;          ///< simulated elapsed cycles
  std::uint64_t violations = 0;      ///< top-level (parent) violations
  std::uint64_t semantic = 0;        ///< program-directed aborts
  std::uint64_t lost_cycles = 0;     ///< cycles discarded by rollbacks
  std::uint64_t commits = 0;
  double speedup = 0.0;              ///< vs the figure's 1-CPU baseline

  /// Optional figure-specific columns appended to the CSV (open-system
  /// workloads report offered load, throughput and latency percentiles this
  /// way).  Every result of a figure must carry the same names in the same
  /// order; figures that leave this empty emit the classic 8-column CSV
  /// byte-for-byte, so the existing goldens are unaffected.
  std::vector<std::pair<std::string, double>> extras;

  /// Field-for-field equality — the harness determinism tests assert that a
  /// serial sweep and a `--jobs N` sweep produce identical vectors.
  friend bool operator==(const RunResult&, const RunResult&) = default;
};

/// A named series: given a Config (mode/cpu count pre-filled), run the
/// workload to completion and report (cycles, stats) via the returned
/// RunResult fields other than series/cpus/speedup (filled by the harness).
struct Series {
  std::string name;
  sim::Mode mode;
  /// Runs the workload on `cpus` virtual CPUs; returns simulated cycles and
  /// fills the stats fields of the result.  `seed_salt` perturbs the
  /// workload's RNG seeds for `--trials` reruns; salt 0 (trial 0) MUST
  /// reproduce the canonical unperturbed run bit-for-bit.
  std::function<void(int cpus, std::uint64_t seed_salt, RunResult& out)> run;
};

/// Fills the stats fields of `out` (cycles, violations, semantic, lost
/// cycles, commits) from a finished simulation.
inline void collect_stats(sim::Engine& eng, RunResult& out) {
  const sim::CpuStats s = eng.stats().summed();
  out.cycles = eng.elapsed_cycles();
  out.violations = s.violations;
  out.semantic = s.semantic_violations;
  out.lost_cycles = s.lost_cycles;
  out.commits = s.commits;
}

// ---- machine-readable (JSON) benchmark output ----

/// One wall-clock microbenchmark measurement (see bench/hotpath.cpp).
struct BenchResult {
  std::string name;
  std::uint64_t ops = 0;         ///< operations (e.g. committed transactions)
  double wall_seconds = 0.0;     ///< host wall-clock time for those ops
  std::uint64_t sim_cycles = 0;  ///< simulated cycles — MUST be invariant
                                 ///< across host-side optimisations.  Engine-
                                 ///< free kernel scenarios store a
                                 ///< deterministic result checksum here; it
                                 ///< plays the same role (invariance
                                 ///< witness across host-side changes).
  /// Optional scenario-specific numeric facts (pool hit rates, rep counts).
  /// Emitted verbatim as extra JSON fields; not compared by the CI gate.
  std::vector<std::pair<std::string, double>> extras;
};

/// Writes benchmark results as JSON so the perf trajectory can be recorded
/// and CI-guarded (BENCH_*.json at the repo root).  Each result gains a
/// derived `ops_per_sec`, and — when `calibration_ops_per_sec` > 0 — a
/// `normalized` throughput (ops_per_sec / calibration) that factors out the
/// host machine's raw speed, making runs comparable across machines.
void write_bench_json(const std::string& path, const std::string& bench,
                      const std::vector<BenchResult>& results,
                      double calibration_ops_per_sec = 0.0);

}  // namespace harness
