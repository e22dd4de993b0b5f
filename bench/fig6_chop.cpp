// Figure 6 (new experiment): transaction chopping over open nesting.
//
// Both high-contention workloads — the single-warehouse SPECjbb engine
// (closed system) and the open-system request server — run under three
// synchronization shapes:
//
//   Flat    — each operation/handler is ONE coarse transaction
//             (jbb kAtomosBaseline, srv kFlatTm);
//   Open    — the paper's best: open-nested counters + semantic
//             transactional collections (jbb kAtomosTransactional,
//             srv kSemanticTm);
//   Chopped — Open, plus tm::chopped(): NewOrder/Payment and the srv
//             dequeue/handle path commit as ordered pieces, so the
//             conflict window shrinks from the whole operation to one
//             piece (jbb kAtomosChopped, srv kChoppedTm).
//
// Shared extras columns: committed throughput per million cycles,
// p50/p99/p999 latency (jbb: per-operation service latency; srv: sojourn
// time under offered load 1.2), aborts per commit, the fraction of CPU
// cycles wasted in aborted work, and the chop attribution counters
// (committed pieces, forward-dependency breaks) from Runtime::chop_stats().
//
//   ./fig6_chop                   # full sweep, writes fig6_chop.csv
//   ./fig6_chop --only Chopped    # the two chopped series
//   ./fig6_chop --jobs 8          # byte-identical CSV, 8 host threads
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/testmap_common.h"
#include "harness/driver.h"
#include "harness/latency.h"
#include "jbb/engine.h"
#include "srv/workload.h"

namespace {

void common_extras(harness::RunResult& out, double tput,
                   const harness::LatencyHistogram& lat, std::uint64_t cpu_cycles,
                   std::uint64_t chop_pieces, std::uint64_t chop_breaks) {
  const double commits = out.commits != 0 ? static_cast<double>(out.commits) : 1.0;
  const double busy = cpu_cycles != 0 ? static_cast<double>(cpu_cycles) : 1.0;
  out.extras = {
      {"tput_per_mcyc", tput},
      {"p50", static_cast<double>(lat.quantile(0.50))},
      {"p99", static_cast<double>(lat.quantile(0.99))},
      {"p999", static_cast<double>(lat.quantile(0.999))},
      {"aborts_per_commit", static_cast<double>(out.violations) / commits},
      {"wasted_frac", static_cast<double>(out.lost_cycles) / busy},
      {"chop_pieces", static_cast<double>(chop_pieces)},
      {"chop_breaks", static_cast<double>(chop_breaks)},
  };
}

/// High-contention single-warehouse engine (fewer districts than CPUs), with
/// a per-operation service-latency histogram.
harness::Series jbb_series(const std::string& name, jbb::Flavor flavor, int total_ops) {
  const sim::Mode mode = flavor == jbb::Flavor::kJava ? sim::Mode::kLock : sim::Mode::kTcc;
  return harness::Series{
      name, mode,
      [name, flavor, mode, total_ops](int cpus, std::uint64_t salt, harness::RunResult& out) {
        jbb::JbbConfig jc;
        jc.flavor = flavor;
        jc.districts = 4;  // fewer districts than CPUs: guaranteed contention
        jc.items = 256;
        jc.customers_per_district = 16;
        jc.think_cycles = 800;
        sim::Engine eng(bench::make_cfg(mode, cpus));
        atomos::Runtime rt(eng);
        jbb::Engine engine(jc);
        const int per_cpu = total_ops / cpus;
        std::vector<jbb::OpCounts> counts(static_cast<std::size_t>(cpus));
        std::vector<harness::LatencyHistogram> lat(static_cast<std::size_t>(cpus));
        for (int c = 0; c < cpus; ++c) {
          eng.spawn([&, c, salt] {
            std::uint64_t rng = 4242 + salt + static_cast<std::uint64_t>(c) * 6151;
            for (int i = 0; i < per_cpu; ++i) {
              const int d = static_cast<int>((rng >> 40) %
                                             static_cast<std::uint64_t>(jc.districts));
              const std::uint64_t start = eng.now();
              engine.run_mixed_op(d, rng, counts[static_cast<std::size_t>(c)]);
              lat[static_cast<std::size_t>(c)].record(eng.now() - start);
            }
          });
        }
        eng.run();
        std::string why;
        if (!engine.check_consistency(&why)) {  // poisons the point: the sweep exits 1
          throw std::runtime_error("jbb consistency failure [" + name +
                                   " cpus=" + std::to_string(cpus) + "]: " + why);
        }
        bench::collect_stats(eng, out);
        harness::LatencyHistogram merged;
        for (const auto& h : lat) merged += h;
        const double tput = out.cycles == 0
                                ? 0.0
                                : 1e6 * static_cast<double>(per_cpu) *
                                      static_cast<double>(cpus) /
                                      static_cast<double>(out.cycles);
        common_extras(out, tput, merged,
                      static_cast<std::uint64_t>(cpus) * out.cycles,
                      rt.chop_stats().pieces, rt.chop_stats().dep_breaks);
      }};
}

/// Open-system server pushed past saturation (offered load 1.2): committed
/// throughput is service-bound, so it measures the synchronization shape
/// rather than the arrival rate.  The latency columns are sojourn time
/// (arrival -> commit).
harness::Series srv_series(const std::string& name, srv::Flavor f, int requests) {
  srv::SrvConfig cfg;
  cfg.load = 1.2;
  cfg.requests = requests;
  return harness::Series{
      name, sim::Mode::kTcc,
      [cfg, f](int cpus, std::uint64_t salt, harness::RunResult& out) {
        srv::SrvReport rep;
        srv::run_server(f, cfg, cpus, salt, rep, &out);
        const double tput = rep.last_commit == 0
                                ? 0.0
                                : 1e6 * static_cast<double>(rep.completed) /
                                      static_cast<double>(rep.last_commit);
        common_extras(out, tput, rep.sojourn,
                      static_cast<std::uint64_t>(cpus) * out.cycles,
                      rep.chop_pieces, rep.chop_dep_breaks);
      }};
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Cli cli =
      harness::Cli::parse(argc, argv, "fig6_chop", /*default_timeout_sec=*/1800.0);
  const int jbb_ops = cli.ops > 0 ? static_cast<int>(cli.ops) : 1600;
  const int srv_reqs = cli.ops > 0 ? static_cast<int>(cli.ops) : 900;

  std::vector<harness::Series> series;
  series.push_back(jbb_series("jbb Flat", jbb::Flavor::kAtomosBaseline, jbb_ops));
  series.push_back(jbb_series("jbb Open", jbb::Flavor::kAtomosTransactional, jbb_ops));
  series.push_back(jbb_series("jbb Chopped", jbb::Flavor::kAtomosChopped, jbb_ops));
  series.push_back(srv_series("srv Flat", srv::Flavor::kFlatTm, srv_reqs));
  series.push_back(srv_series("srv Semantic", srv::Flavor::kSemanticTm, srv_reqs));
  series.push_back(srv_series("srv Chopped", srv::Flavor::kChoppedTm, srv_reqs));

  return harness::run_figure_main(
      "Figure 6: transaction chopping over open nesting, high contention", series,
      {8, 32}, "fig6_chop.csv", cli);
}
