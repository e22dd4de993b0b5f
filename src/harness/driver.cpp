#include "harness/driver.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "sim/engine.h"
#include "trace/tracer.h"

namespace harness {
namespace {

// Golden-ratio odd multiplier: distinct trials get well-separated seed
// perturbations while trial 0 stays exactly the canonical (salt-free) run.
std::uint64_t salt_for_trial(int trial) {
  return static_cast<std::uint64_t>(trial) * 0x9E3779B97F4A7C15ULL;
}

// --only accepts either a series-name substring ("Atomos") or a CPU-count
// list ("cpus=1,8" or just "1,8" — digits and commas only).
struct OnlyFilter {
  bool all = true;
  bool by_cpus = false;
  std::set<int> cpus;
  std::string needle;

  static OnlyFilter parse(const std::string& only) {
    OnlyFilter f;
    if (only.empty()) return f;
    f.all = false;
    std::string body = only;
    if (body.rfind("cpus=", 0) == 0) body = body.substr(5);
    const bool numeric = !body.empty() &&
                         body.find_first_not_of("0123456789,") == std::string::npos;
    if (numeric && (only != body || body.find_first_of("0123456789") != std::string::npos)) {
      f.by_cpus = true;
      std::size_t pos = 0;
      while (pos < body.size()) {
        const std::size_t comma = body.find(',', pos);
        const std::string tok = body.substr(pos, comma - pos);
        if (!tok.empty()) f.cpus.insert(std::atoi(tok.c_str()));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      f.needle = only;
    }
    return f;
  }

  bool keep_series(const std::string& name) const {
    if (all || by_cpus) return true;
    return name.find(needle) != std::string::npos;
  }
  bool keep_cpus(int c) const {
    if (all || !by_cpus) return true;
    return cpus.count(c) != 0;
  }
  bool keep_task(const std::string& section, const std::string& name) const {
    if (all) return true;
    if (by_cpus) return true;  // CPU filters don't apply to named tasks
    return section.find(needle) != std::string::npos ||
           name.find(needle) != std::string::npos;
  }
};

struct Attempt {
  bool poisoned = false;
  std::string error;
};

// Runs `body` under the per-point wall-clock deadline.  A SimTimeout gets
// one retry (the body must be restartable: it builds a fresh Engine/Runtime
// each call, so a half-finished first attempt leaves nothing behind); any
// other workload exception poisons the point immediately.  Typed catches
// only — the txlint catch-swallow rule (and good taste) forbid `catch (...)`.
Attempt run_guarded(const std::function<void()>& body, double timeout_sec) {
  Attempt a;
  const int attempts = timeout_sec > 0.0 ? 2 : 1;
  for (int k = 0; k < attempts; ++k) {
    try {
      if (timeout_sec > 0.0) {
        sim::Engine::set_host_deadline(
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(timeout_sec)));
      }
      body();
      sim::Engine::clear_host_deadline();
      a.poisoned = false;
      a.error.clear();
      return a;
    } catch (const sim::SimTimeout&) {
      sim::Engine::clear_host_deadline();
      a.poisoned = true;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "timed out (%d attempt(s) of %.1fs each)",
                    k + 1, timeout_sec);
      a.error = buf;
    } catch (const std::exception& e) {
      sim::Engine::clear_host_deadline();
      a.poisoned = true;
      a.error = e.what();
      return a;  // non-timeout failures are deterministic: no retry
    }
  }
  return a;
}

// Deterministic pool: runs body(i) for i in [0, n) on up to `jobs` host
// threads, and releases emit(i) strictly in index order as a contiguous
// prefix of results completes — so progress output is identical for any
// jobs value.  jobs <= 1 runs everything inline on the calling thread.
void run_pool(std::size_t n, int jobs, const std::function<void(std::size_t)>& body,
              const std::function<void(std::size_t)>& emit) {
  const int workers =
      static_cast<int>(std::min<std::size_t>(std::max(jobs, 1), std::max<std::size_t>(n, 1)));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
      emit(i);
    }
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<char> done(n, 0);
  std::mutex mu;
  std::size_t cursor = 0;
  auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      body(i);
      std::lock_guard<std::mutex> g(mu);
      done[i] = 1;
      while (cursor < n && done[cursor] != 0) {
        emit(cursor);
        ++cursor;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(work);
  for (std::thread& th : pool) th.join();
}

// Integral extras (latency percentiles in cycles, counts) print as plain
// integers; genuine fractions use the stream's default 6-significant-digit
// form, same as the speedup column.  Both are deterministic functions of the
// value, which the byte-identity guarantee needs.
void put_extra(std::ofstream& csv, double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 9.0e15 && v > -9.0e15) {
    csv << static_cast<long long>(v);
  } else {
    csv << v;
  }
}

void write_figure_csv(const std::string& path, const FigureResult& fr, int trials) {
  std::ofstream csv(path);
  if (!csv) throw std::runtime_error("run_figure_driver: cannot open " + path);
  // Figures with per-point extras gain those columns after `commits`; the
  // names come from the first surviving result and every row must agree
  // (otherwise the figure binary has a bug worth failing loudly on).
  const std::vector<std::pair<std::string, double>>* extras_shape =
      !fr.results.empty() && !fr.results.front().extras.empty()
          ? &fr.results.front().extras
          : nullptr;
  csv << "series,cpus,cycles,speedup,violations,semantic,lost_cycles,commits";
  if (extras_shape != nullptr) {
    for (const auto& [name, value] : *extras_shape) csv << ',' << name;
  }
  if (trials > 1) csv << ",cycles_mean,cycles_min,cycles_max";
  csv << '\n';
  for (std::size_t i = 0; i < fr.results.size(); ++i) {
    const RunResult& r = fr.results[i];
    csv << r.series << ',' << r.cpus << ',' << r.cycles << ',' << r.speedup << ','
        << r.violations << ',' << r.semantic << ',' << r.lost_cycles << ','
        << r.commits;
    if (extras_shape != nullptr) {
      if (r.extras.size() != extras_shape->size())
        throw std::runtime_error("run_figure_driver: inconsistent extras columns in '" +
                                 r.series + "'");
      for (std::size_t e = 0; e < r.extras.size(); ++e) {
        if (r.extras[e].first != (*extras_shape)[e].first)
          throw std::runtime_error("run_figure_driver: inconsistent extras columns in '" +
                                   r.series + "'");
        csv << ',';
        put_extra(csv, r.extras[e].second);
      }
    }
    if (trials > 1) {
      const TrialStats& ts = fr.trial_stats[i];
      csv << ',' << ts.cycles_mean << ',' << ts.cycles_min << ',' << ts.cycles_max;
    }
    csv << '\n';
  }
}

}  // namespace

std::string trace_file_path(const std::string& prefix, const std::string& series,
                            int cpus) {
  std::string name = series;
  for (char& ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
  }
  return prefix + name + "_cpus" + std::to_string(cpus) + ".trace";
}

FigureResult run_figure_driver(const std::string& figure_title,
                               const std::vector<Series>& series,
                               const std::vector<int>& cpu_counts,
                               const std::string& default_csv,
                               const DriverOptions& opt) {
  if (series.empty() || cpu_counts.empty())
    throw std::invalid_argument("run_figure: nothing to run");
  const OnlyFilter filter = OnlyFilter::parse(opt.only);
  const int trials = std::max(opt.trials, 1);

  // Canonical point order: series-major, then CPU count, then trial.  The
  // merge below walks this same order, so results never depend on which
  // host thread finished first.
  struct Point {
    std::size_t s;
    std::size_t c;
    int trial;
  };
  std::vector<Point> points;
  for (std::size_t s = 0; s < series.size(); ++s) {
    if (!filter.keep_series(series[s].name)) continue;
    for (std::size_t c = 0; c < cpu_counts.size(); ++c) {
      if (!filter.keep_cpus(cpu_counts[c])) continue;
      for (int t = 0; t < trials; ++t) points.push_back({s, c, t});
    }
  }
  if (points.empty())
    throw std::invalid_argument("run_figure: --only '" + opt.only +
                                "' matches no (series, cpus) point");

  struct Slot {
    RunResult r;
    Attempt a;
  };
  std::vector<Slot> slots(points.size());

  const auto t0 = std::chrono::steady_clock::now();
  run_pool(
      points.size(), opt.jobs,
      [&](std::size_t i) {
        const Point& pt = points[i];
        Slot& sl = slots[i];
        sl.r.series = series[pt.s].name;
        sl.r.cpus = cpu_counts[pt.c];
        // Only the canonical (trial-0) run of a point is traced: perturbed
        // trials would race to the same file name, and the canonical run is
        // the one every table/CSV number comes from.
        const bool traced = !opt.trace_path.empty() && pt.trial == 0;
        sl.a = run_guarded(
            [&] {
              RunResult r;  // fresh per attempt: a timed-out try leaves no residue
              r.series = sl.r.series;
              r.cpus = sl.r.cpus;
              if (traced) {
                // Re-arm per attempt: the Runtime the workload builds consumes
                // the request, and a timed-out first try must re-set it.
                trace::set_request(
                    trace_file_path(opt.trace_path, r.series, r.cpus),
                    opt.trace_cap);
              }
              series[pt.s].run(r.cpus, salt_for_trial(pt.trial), r);
              trace::clear_request();
              sl.r = std::move(r);
            },
            opt.timeout_sec);
        if (traced) trace::clear_request();  // timed-out/poisoned leftovers
      },
      [&](std::size_t i) {
        const Point& pt = points[i];
        const Slot& sl = slots[i];
        if (sl.a.poisoned) {
          std::fprintf(stderr, "  [%s] cpus=%d%s POISONED: %s\n", sl.r.series.c_str(),
                       sl.r.cpus,
                       trials > 1 ? (" trial=" + std::to_string(pt.trial)).c_str() : "",
                       sl.a.error.c_str());
        } else if (trials > 1) {
          std::fprintf(stderr, "  [%s] cpus=%d trial=%d done (%llu cycles)\n",
                       sl.r.series.c_str(), sl.r.cpus, pt.trial,
                       static_cast<unsigned long long>(sl.r.cycles));
        } else {
          std::fprintf(stderr, "  [%s] cpus=%d done (%llu cycles)\n", sl.r.series.c_str(),
                       sl.r.cpus, static_cast<unsigned long long>(sl.r.cycles));
        }
      });

  FigureResult fr;
  fr.jobs = static_cast<int>(
      std::min<std::size_t>(std::max(opt.jobs, 1), points.size()));
  fr.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  // Merge in canonical order.  The canonical RunResult of a point is its
  // trial-0 run; the trial statistics aggregate all surviving trials.  The
  // speedup baseline is the FIRST surviving point — first series, first CPU
  // count — exactly as in the serial harness.
  double baseline_cycles = 0.0;
  for (std::size_t i = 0; i < points.size(); i += static_cast<std::size_t>(trials)) {
    TrialStats ts;
    ts.trials = 0;
    std::uint64_t sum = 0;
    for (int t = 0; t < trials; ++t) {
      const Slot& sl = slots[i + static_cast<std::size_t>(t)];
      if (sl.a.poisoned) {
        fr.poisoned.push_back({sl.r.series, sl.r.cpus, points[i + t].trial, sl.a.error});
        continue;
      }
      if (ts.trials == 0) {
        ts.cycles_min = ts.cycles_max = sl.r.cycles;
      } else {
        ts.cycles_min = std::min(ts.cycles_min, sl.r.cycles);
        ts.cycles_max = std::max(ts.cycles_max, sl.r.cycles);
      }
      sum += sl.r.cycles;
      ts.trials++;
    }
    const Slot& canon = slots[i];
    if (canon.a.poisoned) continue;  // no canonical run — the point is a hole
    if (ts.trials > 0) ts.cycles_mean = static_cast<double>(sum) / ts.trials;
    RunResult r = canon.r;
    if (baseline_cycles == 0.0) {
      // First series, first CPU count: the figure's baseline.
      baseline_cycles = static_cast<double>(r.cycles);
    }
    r.speedup = baseline_cycles / static_cast<double>(r.cycles);
    fr.results.push_back(std::move(r));
    fr.trial_stats.push_back(ts);
  }

  // --- paper-style speedup table ---
  std::printf("\n=== %s ===\n", figure_title.c_str());
  std::printf("%-28s", "Series \\ CPUs");
  for (int c : cpu_counts) std::printf("%10d", c);
  std::printf("\n");
  for (const Series& s : series) {
    if (!filter.keep_series(s.name)) continue;
    std::printf("%-28s", s.name.c_str());
    for (int c : cpu_counts) {
      for (const RunResult& r : fr.results) {
        if (r.series == s.name && r.cpus == c) {
          std::printf("%10.2f", r.speedup);
          break;
        }
      }
    }
    std::printf("\n");
  }

  // --- stats appendix (the TAPE-flavoured analysis view) ---
  std::printf("--- violations / semantic / lost-cycle%% ---\n");
  for (const Series& s : series) {
    if (!filter.keep_series(s.name)) continue;
    std::printf("%-28s", s.name.c_str());
    for (int c : cpu_counts) {
      for (const RunResult& r : fr.results) {
        if (r.series == s.name && r.cpus == c) {
          const double lost_pct =
              r.cycles == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(r.lost_cycles) /
                        (static_cast<double>(r.cycles) * c);
          std::printf("  %4llu/%3llu/%2.0f%%",
                      static_cast<unsigned long long>(r.violations),
                      static_cast<unsigned long long>(r.semantic), lost_pct);
          break;
        }
      }
    }
    std::printf("\n");
  }

  if (trials > 1) {
    std::printf("--- cycles mean [min, max] over %d trials ---\n", trials);
    for (std::size_t i = 0; i < fr.results.size(); ++i) {
      const RunResult& r = fr.results[i];
      const TrialStats& ts = fr.trial_stats[i];
      std::printf("%-28s cpus=%-3d %14.0f [%llu, %llu] (%d trial(s))\n", r.series.c_str(),
                  r.cpus, ts.cycles_mean, static_cast<unsigned long long>(ts.cycles_min),
                  static_cast<unsigned long long>(ts.cycles_max), ts.trials);
    }
  }

  if (!fr.poisoned.empty()) {
    std::printf("--- POISONED points (excluded from table and CSV) ---\n");
    for (const PoisonedPoint& p : fr.poisoned) {
      std::printf("%-28s cpus=%-3d trial=%d: %s\n", p.series.c_str(), p.cpus, p.trial,
                  p.error.c_str());
    }
  }
  std::fflush(stdout);

  const std::string csv_path = opt.csv_path.empty() ? default_csv : opt.csv_path;
  if (!csv_path.empty()) write_figure_csv(csv_path, fr, trials);
  return fr;
}

// ---- shared bench CLI ----

namespace {

[[noreturn]] void usage(const char* bench, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(
      out,
      "usage: %s [--jobs N] [--trials N] [--ops N] [--csv PATH] [--only F] [--timeout S]\n"
      "          [--trace PREFIX] [--trace-cap N]\n"
      "  --jobs N, -j N  shard sweep points across N host worker threads\n"
      "                  (default 1); the table, CSV and simulated cycles are\n"
      "                  bit-identical for every N\n"
      "  --trials N      run each point N times with perturbed seeds; the CSV\n"
      "                  gains cycles_mean/cycles_min/cycles_max columns and the\n"
      "                  canonical (trial-0) columns are unchanged (default 1)\n"
      "  --ops N         override the workload's total operation count\n"
      "  --csv PATH      write the figure CSV to PATH instead of the default\n"
      "  --only F        restrict the sweep: a series-name substring (e.g.\n"
      "                  'Atomos') or a CPU list ('cpus=1,8' or '1,8')\n"
      "  --timeout S     per-point wall-clock timeout in seconds (default 120,\n"
      "                  0 disables, at most 1e6); a timed-out point is retried\n"
      "                  once, then reported as POISONED instead of hanging\n"
      "                  the sweep\n"
      "  --trace PREFIX  write a deterministic txtrace event file per sweep\n"
      "                  point (trial 0) to PREFIX<series>_cpus<N>.trace;\n"
      "                  inspect with tools/txtrace.  Traced runs spend extra\n"
      "                  host time but simulated cycles are unchanged\n"
      "  --trace-cap N   per-CPU trace buffer capacity in events (default 65536;\n"
      "                  overflow drops newest events, reported by txtrace)\n"
      "  --help, -h      this message\n",
      bench);
  std::exit(code);
}

long parse_long(const char* bench, const char* flag, const std::string& v, long min_value,
                long max_value = LONG_MAX) {
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(v.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v.empty() || errno == ERANGE || n < min_value ||
      n > max_value) {
    std::fprintf(stderr, "%s: bad value '%s' for %s\n", bench, v.c_str(), flag);
    usage(bench, 2);
  }
  return n;
}

// --timeout's cap.  A finite value this small keeps run_guarded's deadline
// inside steady_clock's range; the range test also rejects NaN, which would
// otherwise turn the timeout off.
constexpr double kMaxTimeoutSec = 1e6;

double parse_seconds(const char* bench, const char* flag, const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == nullptr || *end != '\0' || v.empty() || !(d >= 0.0 && d <= kMaxTimeoutSec)) {
    std::fprintf(stderr, "%s: bad value '%s' for %s\n", bench, v.c_str(), flag);
    usage(bench, 2);
  }
  return d;
}

}  // namespace

Cli Cli::parse(int argc, char** argv, const char* bench, double default_timeout_sec) {
  Cli cli;
  cli.opts.timeout_sec = default_timeout_sec;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", bench, flag);
        usage(bench, 2);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage(bench, 0);
    } else if (a == "--jobs" || a == "-j") {
      cli.opts.jobs = static_cast<int>(parse_long(bench, "--jobs", value("--jobs"), 1, INT_MAX));
    } else if (a == "--trials") {
      cli.opts.trials =
          static_cast<int>(parse_long(bench, "--trials", value("--trials"), 1, INT_MAX));
    } else if (a == "--ops") {
      cli.ops = static_cast<int>(parse_long(bench, "--ops", value("--ops"), 1, INT_MAX));
    } else if (a == "--csv") {
      cli.opts.csv_path = value("--csv");
    } else if (a == "--only") {
      cli.opts.only = value("--only");
    } else if (a == "--timeout") {
      cli.opts.timeout_sec = parse_seconds(bench, "--timeout", value("--timeout"));
    } else if (a == "--trace") {
      cli.opts.trace_path = value("--trace");
    } else if (a == "--trace-cap") {
      cli.opts.trace_cap = static_cast<std::size_t>(
          parse_long(bench, "--trace-cap", value("--trace-cap"), 1));
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", bench, a.c_str());
      usage(bench, 2);
    }
  }
  return cli;
}

int run_figure_main(const std::string& figure_title, const std::vector<Series>& series,
                    const std::vector<int>& cpu_counts, const std::string& default_csv,
                    const Cli& cli) {
  try {
    const FigureResult fr =
        run_figure_driver(figure_title, series, cpu_counts, default_csv, cli.opts);
    std::fprintf(stderr, "%s: %zu point(s), jobs=%d, %.2fs wall%s\n", figure_title.c_str(),
                 fr.results.size(), fr.jobs, fr.wall_seconds,
                 fr.ok() ? "" : " [POISONED POINTS — see report above]");
    return fr.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

// ---- generic named-task pool ----

std::vector<TaskRow> run_tasks(const std::vector<NamedTask>& tasks,
                               const DriverOptions& opt) {
  const OnlyFilter filter = OnlyFilter::parse(opt.only);
  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (filter.keep_task(tasks[i].section, tasks[i].name)) picked.push_back(i);
  }
  std::vector<TaskRow> rows(picked.size());
  run_pool(
      picked.size(), opt.jobs,
      [&](std::size_t i) {
        const NamedTask& t = tasks[picked[i]];
        TaskRow& row = rows[i];
        row.section = t.section;
        row.name = t.name;
        row.poisoned = false;
        const Attempt a = run_guarded([&] { row.text = t.fn(); }, opt.timeout_sec);
        if (a.poisoned) {
          row.poisoned = true;
          row.error = a.error;
          row.text.clear();
        }
      },
      [&](std::size_t i) {
        const TaskRow& row = rows[i];
        if (row.poisoned) {
          std::fprintf(stderr, "  [%s] %s POISONED: %s\n", row.section.c_str(),
                       row.name.c_str(), row.error.c_str());
        } else {
          std::fprintf(stderr, "  [%s] %s done\n", row.section.c_str(), row.name.c_str());
        }
      });
  return rows;
}

}  // namespace harness
