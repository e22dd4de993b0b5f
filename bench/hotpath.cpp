// Hot-path microbenchmark: HOST wall-clock throughput of the TM runtime.
//
// The fig* benchmarks measure SIMULATED cycles; this one measures how fast
// the host executes the runtime machinery itself — Shared<T> read/write
// tracking, read-own-writes lookups, commit broadcast, abort/retry — which
// is exactly the constant factor the ROADMAP's "as fast as the hardware
// allows" goal is gated on.  Each scenario also records its simulated cycle
// total as a timing-invariance witness: a host-side optimisation must never
// change it (compare sim_cycles across runs of different builds).
//
// Results are written as JSON (BENCH_hotpath.json) via the harness, with a
// pure-host calibration loop so throughput can be normalized across
// machines (see bench/run_bench.sh and tools/check_hotpath.py).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/txmap.h"
#include "core/txsortedmap.h"
#include "harness/speedup.h"
#include "jstd/hashmap.h"
#include "jstd/treemap.h"
#include "sim/fiber.h"
#include "sim/flat_map.h"
#include "tm/reader_dir.h"
#include "tm/runtime.h"
#include "tm/shared.h"
#include "trace/tracer.h"

namespace {

constexpr int kCpus = 8;
constexpr int kCellsPerCpu = 64;

// The container this runs in shares one CPU with everything else, so single
// runs swing by double-digit percentages.  Every scenario is therefore run
// once untimed (warmup: page-in, branch predictors, the fiber-stack and L1
// pools) and then kReps times, keeping the best wall time.  Simulated cycles
// must agree across every rep — a mismatch means the simulation is not
// deterministic, which is a bug worth aborting a benchmark run over.
constexpr int kReps = 3;

harness::BenchResult best_of(const std::function<harness::BenchResult()>& scenario) {
  harness::BenchResult warm = scenario();  // discarded (except as a witness)
  harness::BenchResult best = scenario();
  for (int rep = 1; rep < kReps; ++rep) {
    harness::BenchResult r = scenario();
    if (r.sim_cycles != best.sim_cycles || warm.sim_cycles != best.sim_cycles) {
      std::fprintf(stderr,
                   "hotpath: %s sim_cycles varied across reps (%llu vs %llu): "
                   "simulation is not deterministic\n",
                   r.name.c_str(), static_cast<unsigned long long>(r.sim_cycles),
                   static_cast<unsigned long long>(best.sim_cycles));
      std::exit(1);
    }
    if (r.wall_seconds < best.wall_seconds) best = std::move(r);
  }
  best.extras.emplace_back("reps", static_cast<double>(kReps));
  return best;
}

// Conflict identity comes from the cells' deterministic *virtual* addresses
// (8 bytes each, assigned in construction order — eight cells per 64-byte
// virtual line), not from host layout, so no host-side padding is needed:
// each CPU's block of kCellsPerCpu consecutively constructed cells spans
// exactly kCellsPerCpu/8 whole virtual lines and never shares a line with
// another CPU's block.  The uncontended scenarios therefore measure pure
// hot-path cost, not violation handling.
struct PaddedCell {
  atomos::Shared<long> v{0, sim::kDataCell};
};

sim::Config tcc_cfg() {
  sim::Config c;
  c.num_cpus = kCpus;
  c.mode = sim::Mode::kTcc;
  return c;
}

double wall_run(sim::Engine& eng) {
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Pure-host calibration: a dependent LCG chain that never touches the
/// simulator or the TM runtime.  Normalizing by this factors out raw CPU
/// speed when comparing JSON outputs across machines.
double calibrate() {
  constexpr std::uint64_t kIters = 100'000'000;
  std::uint64_t s = 0x9e3779b97f4a7c15ULL;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  const auto t1 = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = s;
  (void)sink;
  return static_cast<double>(kIters) / std::chrono::duration<double>(t1 - t0).count();
}

/// Tight read/write + commit loop, disjoint per-CPU cell blocks.
harness::BenchResult bench_rw_commit(int txns_per_cpu) {
  sim::Engine eng(tcc_cfg());
  atomos::Runtime rt(eng);
  std::vector<PaddedCell> cells(kCpus * kCellsPerCpu);
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&cells, c, txns_per_cpu] {
      const int base = c * kCellsPerCpu;
      for (int i = 0; i < txns_per_cpu; ++i) {
        atomos::atomically([&cells, base, i] {
          long acc = 0;
          for (int r = 0; r < 8; ++r) acc += cells[base + (i * 3 + r * 5) % kCellsPerCpu].v.get();
          for (int w = 0; w < 4; ++w) {
            cells[base + (i * 7 + w * 11) % kCellsPerCpu].v.set(acc + w);
          }
        });
      }
    });
  }
  harness::BenchResult r;
  r.name = "rw_commit";
  r.ops = static_cast<std::uint64_t>(kCpus) * txns_per_cpu;
  r.wall_seconds = wall_run(eng);
  r.sim_cycles = eng.elapsed_cycles();
  return r;
}

/// Read-only transactions (trivial commits, no broadcast).
harness::BenchResult bench_read_dominated(int txns_per_cpu) {
  sim::Engine eng(tcc_cfg());
  atomos::Runtime rt(eng);
  std::vector<PaddedCell> cells(kCpus * kCellsPerCpu);
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&cells, c, txns_per_cpu] {
      const int base = c * kCellsPerCpu;
      for (int i = 0; i < txns_per_cpu; ++i) {
        atomos::atomically([&cells, base, i] {
          long acc = 0;
          for (int r = 0; r < 16; ++r) acc += cells[base + (i + r * 5) % kCellsPerCpu].v.get();
          volatile long sink = acc;
          (void)sink;
        });
      }
    });
  }
  harness::BenchResult r;
  r.name = "read_dominated";
  r.ops = static_cast<std::uint64_t>(kCpus) * txns_per_cpu;
  r.wall_seconds = wall_run(eng);
  r.sim_cycles = eng.elapsed_cycles();
  return r;
}

/// Nested atomically blocks inside each transaction: they run inline, as
/// part of the enclosing transaction (the name predates flattened nesting;
/// BENCH_hotpath.json and its comparator key on it).
harness::BenchResult bench_nested_frames(int txns_per_cpu) {
  sim::Engine eng(tcc_cfg());
  atomos::Runtime rt(eng);
  std::vector<PaddedCell> cells(kCpus * kCellsPerCpu);
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&cells, c, txns_per_cpu] {
      const int base = c * kCellsPerCpu;
      for (int i = 0; i < txns_per_cpu; ++i) {
        atomos::atomically([&cells, base, i] {
          for (int f = 0; f < 2; ++f) {
            atomos::atomically([&cells, base, i, f] {
              long acc = 0;
              for (int r = 0; r < 4; ++r) {
                acc += cells[base + (i + f * 13 + r * 5) % kCellsPerCpu].v.get();
              }
              for (int w = 0; w < 2; ++w) {
                cells[base + (i + f * 17 + w * 11) % kCellsPerCpu].v.set(acc);
              }
            });
          }
        });
      }
    });
  }
  harness::BenchResult r;
  r.name = "nested_frames";
  r.ops = static_cast<std::uint64_t>(kCpus) * txns_per_cpu;
  r.wall_seconds = wall_run(eng);
  r.sim_cycles = eng.elapsed_cycles();
  return r;
}

/// Open-nested children (a second Txn begin/commit per parent transaction).
harness::BenchResult bench_open_nested(int txns_per_cpu) {
  sim::Engine eng(tcc_cfg());
  atomos::Runtime rt(eng);
  std::vector<PaddedCell> cells(kCpus * kCellsPerCpu);
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&cells, c, txns_per_cpu] {
      const int base = c * kCellsPerCpu;
      for (int i = 0; i < txns_per_cpu; ++i) {
        atomos::atomically([&cells, base, i] {
          long acc = 0;
          for (int r = 0; r < 4; ++r) acc += cells[base + (i + r * 5) % kCellsPerCpu].v.get();
          atomos::open_atomically([&cells, base, i, acc] {
            for (int w = 0; w < 2; ++w) {
              cells[base + 32 + (i + w * 11) % 32].v.set(acc);
            }
          });
          cells[base + (i * 7) % 32].v.set(acc);
        });
      }
    });
  }
  harness::BenchResult r;
  r.name = "open_nested";
  r.ops = static_cast<std::uint64_t>(kCpus) * txns_per_cpu;
  r.wall_seconds = wall_run(eng);
  r.sim_cycles = eng.elapsed_cycles();
  return r;
}

/// All CPUs hammer the same 16 cells: violations, aborts and retries
/// (exercises rollback and transaction-object reuse).
harness::BenchResult bench_contended(int txns_per_cpu) {
  sim::Engine eng(tcc_cfg());
  atomos::Runtime rt(eng);
  std::vector<PaddedCell> cells(16);
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&cells, c, txns_per_cpu] {
      for (int i = 0; i < txns_per_cpu; ++i) {
        atomos::atomically([&cells, c, i] {
          long acc = 0;
          for (int r = 0; r < 4; ++r) acc += cells[(c + i + r * 3) % 16].v.get();
          for (int w = 0; w < 2; ++w) cells[(c * 5 + i + w * 7) % 16].v.set(acc);
        });
      }
    });
  }
  harness::BenchResult r;
  r.name = "contended";
  r.ops = static_cast<std::uint64_t>(kCpus) * txns_per_cpu;  // committed txns
  r.wall_seconds = wall_run(eng);
  r.sim_cycles = eng.elapsed_cycles();
  return r;
}

/// The abort layer.  Every CPU reads one hot cell and writes a private one;
/// every `writer_stride`-th CPU also writes the hot cell, so each of its
/// commits flags the other readers.  AggressiveRetry restarts the losers at
/// once, keeping the abort rate high.  `mid_body_work` decides where a flag
/// is found.  With none, a body is a read and a write or two: the flag lands
/// while the last store misses or while the body queues for the commit
/// token, and commit_txn finds it.  With long work it lands while the body
/// runs: work() reports it and the body returns.  With `read_finds`, the
/// work is charged without a poll and the read of the private cell that
/// follows finds the flag and throws it.  ops counts committed transactions;
/// the violations extra records the abort load.
harness::BenchResult bench_abort(const char* name, int cpus, int txns_per_cpu,
                                 int writer_stride, std::uint64_t mid_body_work,
                                 bool read_finds = false) {
  sim::Config cfg = tcc_cfg();
  cfg.num_cpus = cpus;
  sim::Engine eng(cfg);
  atomos::Runtime rt(eng, std::make_unique<atomos::AggressiveRetry>());
  // Eight cells per virtual line: cell 0 is hot, cell 8*(c+1) is CPU c's.
  std::vector<PaddedCell> cells(static_cast<std::size_t>(8 * (cpus + 1)));
  for (int c = 0; c < cpus; ++c) {
    const bool writer = c % writer_stride == 0;
    eng.spawn([&cells, c, writer, txns_per_cpu, mid_body_work, read_finds] {
      for (int i = 0; i < txns_per_cpu; ++i) {
        atomos::atomically([&cells, c, writer, i, mid_body_work, read_finds] {
          const long v = cells[0].v.get();
          if (read_finds) {
            sim::Engine::get().tick(mid_body_work);  // compute that does not poll
            (void)cells[8 * (c + 1)].v.get();
          } else if (mid_body_work != 0 && atomos::work(mid_body_work)) {
            return;
          }
          cells[8 * (c + 1)].v.set(v + i);
          if (writer) cells[0].v.set(v + 1);
        });
      }
    });
  }
  harness::BenchResult r;
  r.name = name;
  r.ops = static_cast<std::uint64_t>(cpus) * txns_per_cpu;  // committed txns
  r.wall_seconds = wall_run(eng);
  r.sim_cycles = eng.elapsed_cycles();
  r.extras.emplace_back(
      "violations", static_cast<double>(eng.stats().total(&sim::CpuStats::violations)));
  return r;
}

/// The collection-class layer: one CPU runs `txns` transactions, each a put
/// and a get on a map pre-filled with 256 of its 512 keys (the per-operation
/// shape of the paper's TestMap).  Returns the host time of the run and its
/// simulated cycles.
template <class MakeMap>
std::pair<double, std::uint64_t> run_map_ops(int txns, MakeMap make_map) {
  sim::Config cfg = tcc_cfg();
  cfg.num_cpus = 1;
  sim::Engine eng(cfg);
  atomos::Runtime rt(eng);
  std::unique_ptr<jstd::Map<long, long>> map = make_map();
  for (long k = 0; k < 256; ++k) map->put(k, k);
  long sum = 0;
  eng.spawn([&map, &sum, txns] {
    for (long k = 0; k < txns; ++k) {
      atomos::atomically([&map, &sum, k] {
        map->put(k % 512, k);
        sum += map->get((k * 7) % 512).value_or(0);
      });
    }
  });
  const double wall = wall_run(eng);
  volatile long sink = sum;
  (void)sink;
  return {wall, eng.elapsed_cycles()};
}

/// The same transactions through a semantic-lock wrapper (`make_wrapped`)
/// and on the bare map under plain TM (`make_plain`).  Only the wrapped run
/// is timed; the bare map's cycles are an extra, so the JSON carries the
/// simulated price of semantic concurrency control per transaction.
template <class MakeWrapped, class MakePlain>
harness::BenchResult bench_map_ops(const char* name, int txns, MakeWrapped make_wrapped,
                                   MakePlain make_plain) {
  const auto [wall, cycles] = run_map_ops(txns, make_wrapped);
  harness::BenchResult r;
  r.name = name;
  r.ops = static_cast<std::uint64_t>(txns);
  r.wall_seconds = wall;
  r.sim_cycles = cycles;
  r.extras.emplace_back("unwrapped_sim_cycles",
                        static_cast<double>(run_map_ops(txns, make_plain).second));
  return r;
}

harness::BenchResult bench_txmap_ops(int txns) {
  return bench_map_ops(
      "txmap_ops", txns,
      [] {
        return std::make_unique<tcc::TransactionalMap<long, long>>(
            std::make_unique<jstd::HashMap<long, long>>(1024));
      },
      [] { return std::make_unique<jstd::HashMap<long, long>>(1024); });
}

harness::BenchResult bench_txsortedmap_ops(int txns) {
  return bench_map_ops(
      "txsortedmap_ops", txns,
      [] {
        return std::make_unique<tcc::TransactionalSortedMap<long, long>>(
            std::make_unique<jstd::TreeMap<long, long>>());
      },
      [] { return std::make_unique<jstd::TreeMap<long, long>>(); });
}

/// Scheduler-decision cost: `cpus` lockstep fibers each ticking one cycle at
/// a time, so essentially every tick crosses the run limit and forces a full
/// scheduling decision plus fiber switch.  No TM runtime, no memory system
/// traffic — this isolates the runnable-index + context-switch cost the
/// engine pays per simulated event, and how it scales with the CPU count
/// (the old linear scan was O(cpus) per decision; the runq's tournament tree
/// rewrites at most two branch-free log2(cpus)-deep paths).
harness::BenchResult bench_sched_scan(int cpus, int ticks_per_cpu) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = sim::Mode::kTcc;
  sim::Engine eng(c);
  for (int i = 0; i < cpus; ++i) {
    eng.spawn([ticks_per_cpu] {
      sim::Engine& e = sim::Engine::get();
      for (int t = 0; t < ticks_per_cpu; ++t) e.tick(1);
    });
  }
  harness::BenchResult r;
  r.name = "sched_scan_" + std::to_string(cpus);
  r.ops = static_cast<std::uint64_t>(cpus) * static_cast<std::uint64_t>(ticks_per_cpu);
  r.wall_seconds = wall_run(eng);
  r.sim_cycles = eng.elapsed_cycles();
  return r;
}

/// Engine construction/run/teardown churn: `engines` back-to-back Engines,
/// each spawning `cpus` trivial fibers.  Dominated by fiber stack
/// acquisition and release — i.e. it measures the per-host-thread stack
/// pool (a pool hit skips mmap/guard-page setup entirely).  ops counts
/// fibers created; sim_cycles sums the (identical) runs as the usual
/// invariance witness.
harness::BenchResult bench_fiber_spawn(int cpus, int engines) {
  harness::BenchResult r;
  r.name = "fiber_spawn_" + std::to_string(cpus);
  r.ops = static_cast<std::uint64_t>(cpus) * static_cast<std::uint64_t>(engines);
  const sim::StackPoolStats sp0 = sim::stack_pool_stats();
  const sim::L1PoolStats lp0 = sim::l1_pool_stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (int e = 0; e < engines; ++e) {
    sim::Config c;
    c.num_cpus = cpus;
    c.mode = sim::Mode::kTcc;
    sim::Engine eng(c);
    for (int i = 0; i < cpus; ++i) {
      eng.spawn([] { sim::Engine::get().tick(1); });
    }
    eng.run();
    r.sim_cycles += eng.elapsed_cycles();
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  // Pool effectiveness for this scenario's window (the whole point of the
  // pools is that spawn churn recycles instead of hitting mmap/malloc).
  const sim::StackPoolStats sp1 = sim::stack_pool_stats();
  const sim::L1PoolStats lp1 = sim::l1_pool_stats();
  const auto rate = [](std::uint64_t hits, std::uint64_t misses) {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  };
  r.extras.emplace_back("stack_pool_hit_rate",
                        rate(sp1.hits - sp0.hits, sp1.misses - sp0.misses));
  r.extras.emplace_back("l1_pool_hit_rate",
                        rate(lp1.hits - lp0.hits, lp1.misses - lp0.misses));
  return r;
}

// ---- engine-free kernel microscenarios -------------------------------------
// The three data-path kernels the TM runtime leans on, exercised directly
// (no engine, no fibers) so a change to one of them shows up undiluted by
// scheduler cost.  These have no simulated clock; sim_cycles carries a
// deterministic checksum of the results instead, which the CI cycle-identity
// comparison then uses to witness that a kernel change still computes the
// same answers.

/// FlatMap in the TM runtime's dominant pattern: a small table filled by
/// try_emplace (with duplicate hits), probed by find (hits and misses), then
/// generation-cleared — one "transaction" per iteration.
harness::BenchResult bench_flatmap_probe(int iters) {
  sim::FlatMap<std::uint64_t, std::uint64_t> m;
  std::uint64_t sum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t base = 0x40000000u + static_cast<std::uint64_t>(i % 64) * 8;
    for (int w = 0; w < 12; ++w) {
      auto [v, inserted] = m.try_emplace(base + (w * 5) % 8, static_cast<std::uint64_t>(w));
      sum += *v + (inserted ? 1 : 0);  // (w*5)%8 repeats: read-own-write hits
    }
    for (int p = 0; p < 16; ++p) {
      // Half the probed keys are present, half miss (the post-commit lookup
      // and Bloom-filter-confirm paths respectively).
      if (const std::uint64_t* v = m.find(base + p)) sum += *v;
    }
    m.clear();
  }
  const auto t1 = std::chrono::steady_clock::now();
  harness::BenchResult r;
  r.name = "flatmap_probe";
  r.ops = static_cast<std::uint64_t>(iters) * 28;  // emplaces + probes
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.sim_cycles = sum;  // checksum witness (see header comment)
  return r;
}

/// ReaderDir commit-broadcast kernel at the three CPU widths: sparse reader
/// masks walked with for_each_reader_except, plus a first read whose bit a
/// later committer clears.
harness::BenchResult bench_reader_flag(int ncpus, int iters) {
  atomos::ReaderDir rd;
  constexpr std::uint64_t kLineBase = sim::kVaBase >> sim::Config::kLineShift;
  constexpr int kLines = 64;
  // Sparse population: 3 readers per line, spread across the mask words.
  for (int l = 0; l < kLines; ++l) {
    for (int s = 0; s < 3; ++s) rd.add(kLineBase + l, (l + s * (ncpus / 3 + 1)) % ncpus);
  }
  std::uint64_t sum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    const sim::LineAddr line = kLineBase + (i % kLines);
    const int committer = i % ncpus;
    rd.for_each_reader_except(line, committer, [&sum](int cpu) { sum += cpu + 1; });
    const int churn = (i * 7) % ncpus;
    if (!rd.is_reader(line, churn)) {
      rd.add(line, churn);
      rd.clear(line, churn);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  harness::BenchResult r;
  r.name = "reader_flag_" + std::to_string(ncpus);
  r.ops = static_cast<std::uint64_t>(iters);
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.sim_cycles = sum;  // checksum witness
  return r;
}

/// Commit-drain dedup kernel: collapsing a positional write log to unique
/// lines, at both the small-set (linear scan) and large-set (sort+unique)
/// shapes broadcast_and_apply switches between.
harness::BenchResult bench_commit_drain(int iters) {
  std::vector<sim::LineAddr> scratch;
  scratch.reserve(128);
  std::uint64_t sum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    // Alternate between an 8-entry log with duplicates (rw_commit shape) and
    // a 48-entry log (collection-class bulk commit shape).
    const int entries = (i & 1) ? 48 : 8;
    scratch.clear();
    for (int e = 0; e < entries; ++e) {
      const sim::LineAddr line = 0x1000000 + (i + e * 3) % (entries / 2);
      if (entries <= 32) {
        if (scratch.empty() || scratch.back() != line) {
          bool seen = false;
          for (const sim::LineAddr l : scratch) {
            if (l == line) { seen = true; break; }
          }
          if (!seen) scratch.push_back(line);
        }
      } else {
        scratch.push_back(line);
      }
    }
    if (entries > 32) {
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    }
    for (const sim::LineAddr l : scratch) sum += l;
  }
  const auto t1 = std::chrono::steady_clock::now();
  harness::BenchResult r;
  r.name = "commit_drain";
  r.ops = static_cast<std::uint64_t>(iters);
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.sim_cycles = sum;  // checksum witness
  return r;
}

/// Re-runs a scenario with an in-memory tracer attached (empty path: events
/// are recorded and audited but never written).  The traced twin's
/// sim_cycles must equal the plain run's — emission is host-side only — and
/// its wall-clock measures the cost of the `if (tracer)` hooks taken.
harness::BenchResult traced_twin(harness::BenchResult (*scenario)(int), int txns_per_cpu) {
  trace::set_request("");
  harness::BenchResult r = scenario(txns_per_cpu);
  trace::clear_request();
  r.name += "_traced";
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // One optional argument, the output path.  Anything else (an option, a
  // second argument) is a usage error, reported before any scenario runs.
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: hotpath [OUTPUT.json]  (default BENCH_hotpath.json)\n");
    return 2;
  }
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_hotpath.json";

  const double calib = calibrate();
  std::vector<harness::BenchResult> results;
  results.push_back(best_of([] { return bench_rw_commit(20000); }));
  results.push_back(best_of([] { return bench_read_dominated(20000); }));
  results.push_back(best_of([] { return bench_nested_frames(10000); }));
  results.push_back(best_of([] { return bench_open_nested(10000); }));
  results.push_back(best_of([] { return bench_contended(4000); }));
  results.push_back(best_of([] { return bench_abort("abort_at_commit", 32, 200, 4, 0); }));
  results.push_back(best_of([] { return bench_abort("abort_mid_body", 8, 300, 1, 400); }));
  results.push_back(best_of([] { return bench_abort("abort_mid_read", 8, 300, 1, 400, true); }));
  // Collection-class layer: semantic locks, store buffers and handlers.
  results.push_back(best_of([] { return bench_txmap_ops(20000); }));
  results.push_back(best_of([] { return bench_txsortedmap_ops(20000); }));
  // Engine hot-loop microbenches: scheduler decision cost and fiber
  // construction/teardown, at the paper scale (8), the old CPU-axis top
  // (32) and the new top (128).  Total ticks are held constant across the
  // sched_scan widths so their ops/sec are directly comparable.
  results.push_back(best_of([] { return bench_sched_scan(8, 400000); }));
  results.push_back(best_of([] { return bench_sched_scan(32, 100000); }));
  results.push_back(best_of([] { return bench_sched_scan(128, 25000); }));
  results.push_back(best_of([] { return bench_fiber_spawn(8, 2000); }));
  results.push_back(best_of([] { return bench_fiber_spawn(32, 500); }));
  results.push_back(best_of([] { return bench_fiber_spawn(128, 125); }));
  // Data-path kernels, engine-free (their sim_cycles field is a checksum,
  // the same invariance witness as the simulated cycles elsewhere).
  results.push_back(best_of([] { return bench_flatmap_probe(300000); }));
  results.push_back(best_of([] { return bench_reader_flag(8, 2000000); }));
  results.push_back(best_of([] { return bench_reader_flag(32, 2000000); }));
  results.push_back(best_of([] { return bench_reader_flag(128, 1000000); }));
  results.push_back(best_of([] { return bench_commit_drain(500000); }));
  // Trace-on twins: same work with an in-memory tracer attached, so the
  // JSON records what turning tracing on costs (and witnesses that it
  // leaves simulated cycles untouched).
  results.push_back(best_of([] { return traced_twin(bench_rw_commit, 20000); }));
  results.push_back(best_of([] { return traced_twin(bench_contended, 4000); }));

  std::printf("%-16s %12s %10s %14s %14s\n", "scenario", "txns", "wall(s)", "txns/sec",
              "sim_cycles");
  for (const auto& r : results) {
    std::printf("%-16s %12llu %10.3f %14.0f %14llu\n", r.name.c_str(),
                static_cast<unsigned long long>(r.ops), r.wall_seconds,
                static_cast<double>(r.ops) / r.wall_seconds,
                static_cast<unsigned long long>(r.sim_cycles));
  }
  std::printf("calibration: %.0f ops/sec\n", calib);

  harness::write_bench_json(out_path, "hotpath", results, calib);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
