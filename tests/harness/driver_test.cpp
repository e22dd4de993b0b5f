// Tests for the host-parallel experiment driver (harness/driver.h).
//
// The load-bearing property is DETERMINISM: a `--jobs N` sweep must produce
// exactly the results of the serial sweep — same RunResult vectors, same
// CSV bytes — because each simulation point is a pure function of its
// (series, cpus, seed).  These tests drive the real fig1-shaped workload
// (bench/testmap_common.h) at a small op count so the property is checked
// against genuine simulations, not stubs.
#include "harness/driver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/testmap_common.h"
#include "sim/engine.h"

namespace {

using bench::TestMapParams;

TestMapParams tiny_params() {
  TestMapParams p;
  p.total_ops = 160;
  p.think_cycles = 500;
  p.seed = 12345;
  return p;
}

// Two-series fig1 shape: lock-mode "Java" first (its 1-CPU run is the
// figure baseline), then a transactional series.
std::vector<harness::Series> tiny_fig1(const TestMapParams& p) {
  auto make_hash = [p] {
    return std::make_unique<jstd::HashMap<long, long>>(static_cast<std::size_t>(p.key_space) * 2);
  };
  std::vector<harness::Series> series;
  series.push_back(bench::java_series("Java HashMap", p, make_hash));
  series.push_back(bench::atomos_series("Atomos HashMap", p, make_hash));
  return series;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : line) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

TEST(DriverTest, BaselineIsFirstSeriesOneCpuLockMode) {
  const TestMapParams p = tiny_params();
  harness::DriverOptions opt;
  const harness::FigureResult fr =
      harness::run_figure_driver("baseline test", tiny_fig1(p), {1, 2}, "", opt);
  ASSERT_TRUE(fr.ok());
  ASSERT_EQ(fr.results.size(), 4u);
  // The first point — first series ("Java", lock mode), first CPU count
  // (1) — is the figure's baseline, so its speedup is exactly 1.
  EXPECT_EQ(fr.results[0].series, "Java HashMap");
  EXPECT_EQ(fr.results[0].cpus, 1);
  EXPECT_DOUBLE_EQ(fr.results[0].speedup, 1.0);
  // Every other speedup is measured against that baseline's cycles.
  const double base = static_cast<double>(fr.results[0].cycles);
  for (const harness::RunResult& r : fr.results) {
    EXPECT_DOUBLE_EQ(r.speedup, base / static_cast<double>(r.cycles));
  }
}

TEST(DriverTest, CsvColumnFormat) {
  const TestMapParams p = tiny_params();
  const std::string path = testing::TempDir() + "/driver_test_fmt.csv";
  harness::DriverOptions opt;
  const harness::FigureResult fr =
      harness::run_figure_driver("csv format test", tiny_fig1(p), {1, 2}, path, opt);
  ASSERT_TRUE(fr.ok());

  std::ifstream csv(path);
  ASSERT_TRUE(csv.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "series,cpus,cycles,speedup,violations,semantic,lost_cycles,commits");
  std::size_t rows = 0;
  while (std::getline(csv, line)) {
    const std::vector<std::string> f = split_fields(line);
    ASSERT_EQ(f.size(), 8u) << "row: " << line;
    const harness::RunResult& r = fr.results[rows];
    EXPECT_EQ(f[0], r.series);
    EXPECT_EQ(f[1], std::to_string(r.cpus));
    EXPECT_EQ(f[2], std::to_string(r.cycles));
    EXPECT_EQ(f[4], std::to_string(r.violations));
    EXPECT_EQ(f[7], std::to_string(r.commits));
    ++rows;
  }
  EXPECT_EQ(rows, fr.results.size());
}

TEST(DriverTest, DeterminismSerialVsJobs8) {
  const TestMapParams p = tiny_params();
  const std::string serial_csv = testing::TempDir() + "/driver_test_serial.csv";
  const std::string jobs_csv = testing::TempDir() + "/driver_test_jobs8.csv";

  harness::DriverOptions serial;
  const harness::FigureResult a =
      harness::run_figure_driver("determinism serial", tiny_fig1(p), {1, 2, 4}, serial_csv,
                                 serial);

  harness::DriverOptions jobs8;
  jobs8.jobs = 8;
  const harness::FigureResult b =
      harness::run_figure_driver("determinism jobs8", tiny_fig1(p), {1, 2, 4}, jobs_csv, jobs8);

  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same RunResult vectors, field for field (cycles, stats, speedups)...
  EXPECT_EQ(a.results, b.results);
  // ...and byte-identical CSVs.
  const std::string sa = slurp(serial_csv);
  EXPECT_FALSE(sa.empty());
  EXPECT_EQ(sa, slurp(jobs_csv));
}

TEST(DriverTest, OnlyFilterSelectsSeriesAndCpus) {
  const TestMapParams p = tiny_params();
  harness::DriverOptions only_atomos;
  only_atomos.only = "Atomos";
  const harness::FigureResult fa =
      harness::run_figure_driver("only series", tiny_fig1(p), {1, 2}, "", only_atomos);
  ASSERT_EQ(fa.results.size(), 2u);
  for (const harness::RunResult& r : fa.results) EXPECT_EQ(r.series, "Atomos HashMap");

  harness::DriverOptions only_cpus;
  only_cpus.only = "cpus=2";
  const harness::FigureResult fc =
      harness::run_figure_driver("only cpus", tiny_fig1(p), {1, 2}, "", only_cpus);
  ASSERT_EQ(fc.results.size(), 2u);
  for (const harness::RunResult& r : fc.results) EXPECT_EQ(r.cpus, 2);

  harness::DriverOptions only_none;
  only_none.only = "NoSuchSeries";
  EXPECT_THROW(harness::run_figure_driver("only none", tiny_fig1(p), {1, 2}, "", only_none),
               std::invalid_argument);
}

TEST(DriverTest, TimeoutPoisonsHungPointAndSweepCompletes) {
  const TestMapParams p = tiny_params();
  std::vector<harness::Series> series = tiny_fig1(p);
  // A workload that never finishes: the driver's wall-clock deadline must
  // kill it (twice — one retry) and poison the point, not hang the sweep.
  series.push_back(harness::Series{
      "Hung", sim::Mode::kLock, [](int cpus, std::uint64_t, harness::RunResult& out) {
        sim::Config cfg;
        cfg.mode = sim::Mode::kLock;
        cfg.num_cpus = cpus;
        sim::Engine eng(cfg);
        eng.spawn([&] {
          for (;;) eng.tick(100);
        });
        eng.run();
        out.cycles = eng.elapsed_cycles();
      }});
  harness::DriverOptions opt;
  opt.timeout_sec = 0.05;
  const harness::FigureResult fr =
      harness::run_figure_driver("timeout test", series, {1}, "", opt);
  EXPECT_FALSE(fr.ok());
  ASSERT_EQ(fr.poisoned.size(), 1u);
  EXPECT_EQ(fr.poisoned[0].series, "Hung");
  EXPECT_NE(fr.poisoned[0].error.find("timed out"), std::string::npos);
  // The healthy points still completed and were merged in order.
  ASSERT_EQ(fr.results.size(), 2u);
  EXPECT_EQ(fr.results[0].series, "Java HashMap");
  EXPECT_EQ(fr.results[1].series, "Atomos HashMap");
}

TEST(DriverTest, TrialStatsBracketCanonicalRun) {
  const TestMapParams p = tiny_params();
  harness::DriverOptions one;
  const harness::FigureResult single =
      harness::run_figure_driver("trials single", tiny_fig1(p), {2}, "", one);

  harness::DriverOptions trials;
  trials.trials = 3;
  const harness::FigureResult fr =
      harness::run_figure_driver("trials test", tiny_fig1(p), {2}, "", trials);
  ASSERT_TRUE(fr.ok());
  ASSERT_EQ(fr.results.size(), 2u);
  ASSERT_EQ(fr.trial_stats.size(), 2u);
  for (std::size_t i = 0; i < fr.results.size(); ++i) {
    const harness::TrialStats& ts = fr.trial_stats[i];
    EXPECT_EQ(ts.trials, 3);
    EXPECT_LE(static_cast<double>(ts.cycles_min), ts.cycles_mean);
    EXPECT_LE(ts.cycles_mean, static_cast<double>(ts.cycles_max));
    // Trial 0 runs with salt 0, so the canonical columns must match the
    // plain trials=1 sweep exactly.
    EXPECT_EQ(fr.results[i].cycles, single.results[i].cycles);
    EXPECT_LE(ts.cycles_min, fr.results[i].cycles);
    EXPECT_GE(ts.cycles_max, fr.results[i].cycles);
  }
}

// An integer flag past its type's range is a usage error (exit 2), never a
// silently wrapped or clamped value: 2^32 + 2 trials once narrowed to 2.
// These only parse, so no sweep or thread starts in the child.
void parse_flag(const char* flag, const char* value) {
  char prog[] = "fig";
  std::string f = flag, v = value;
  char* argv[] = {prog, f.data(), v.data(), nullptr};
  (void)harness::Cli::parse(3, argv, "fig");
}

TEST(CliDeathTest, IntegerFlagsOutOfRangeExitWithUsage) {
  EXPECT_EXIT(parse_flag("--trials", "4294967298"), ::testing::ExitedWithCode(2), "bad value");
  EXPECT_EXIT(parse_flag("--jobs", "4294967297"), ::testing::ExitedWithCode(2), "bad value");
  EXPECT_EXIT(parse_flag("--ops", "99999999999999999999"), ::testing::ExitedWithCode(2),
              "bad value");
  // --ops sizes an int op count: past INT_MAX it would narrow to 0 or less.
  EXPECT_EXIT(parse_flag("--ops", "4294967296"), ::testing::ExitedWithCode(2), "bad value");
  EXPECT_EXIT(parse_flag("--ops", "3000000000"), ::testing::ExitedWithCode(2), "bad value");
  EXPECT_EXIT(parse_flag("--trace-cap", "99999999999999999999"), ::testing::ExitedWithCode(2),
              "bad value");
  // --trace-cap sizes a tracer's 32-bit event counters: 2^32 wrapped to 0.
  EXPECT_EXIT(parse_flag("--trace-cap", "4294967296"), ::testing::ExitedWithCode(2),
              "bad value");
}

// Valid values of the sweep flags land in DriverOptions as given; the flags
// not passed keep their defaults.
TEST(CliTest, ValidFlagsReachDriverOptions) {
  std::vector<std::string> args = {"fig", "--trials", "3", "--only", "cpus=1,8",
                                   "--trace", "out/fig3_", "--trace-cap", "4294967295"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const harness::Cli cli =
      harness::Cli::parse(static_cast<int>(args.size()), argv.data(), "fig");
  EXPECT_EQ(cli.opts.trials, 3);
  EXPECT_EQ(cli.opts.only, "cpus=1,8");
  EXPECT_EQ(cli.opts.trace_path, "out/fig3_");
  EXPECT_EQ(cli.opts.trace_cap, std::size_t{4294967295});
  EXPECT_EQ(cli.opts.jobs, 1);
  EXPECT_EQ(cli.opts.csv_path, "");
  EXPECT_EQ(cli.ops, -1);
}

// A timeout must be finite and at most 1e6 s: NaN would turn the timeout
// off, and a huge value would overflow the deadline's clock conversion.
TEST(CliDeathTest, NonFiniteOrHugeTimeoutExitsWithUsage) {
  EXPECT_EXIT(parse_flag("--timeout", "nan"), ::testing::ExitedWithCode(2), "bad value");
  EXPECT_EXIT(parse_flag("--timeout", "inf"), ::testing::ExitedWithCode(2), "bad value");
  EXPECT_EXIT(parse_flag("--timeout", "1e300"), ::testing::ExitedWithCode(2), "bad value");
}

}  // namespace
