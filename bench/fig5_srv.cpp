// Figure 5 (new experiment): open-system server — throughput and sojourn
// time vs offered load, under lock / flat TM / semantic TM handler loops.
//
// Unlike figures 1-4 (closed systems sweeping CPU count at fixed work),
// this sweeps OFFERED LOAD at three server sizes.  Each series is one
// (synchronization flavor, load) pair; the CPU axis is {8, 32, 128}.  All
// flavors at a given (load, cpus) replay a bit-identical Poisson arrival
// schedule, so differences in the extra CSV columns — throughput and
// p50/p99/p999 sojourn cycles — are purely the synchronization cost.
//
//   ./fig5_srv                      # full sweep, writes fig5_srv.csv
//   ./fig5_srv --only Semantic      # one flavor
//   ./fig5_srv --jobs 8             # byte-identical CSV, 8 host threads
#include <vector>

#include "harness/driver.h"
#include "srv/workload.h"

int main(int argc, char** argv) {
  const harness::Cli cli =
      harness::Cli::parse(argc, argv, "fig5_srv", /*default_timeout_sec=*/1800.0);
  const int requests = cli.ops > 0 ? cli.ops : 1200;

  const std::vector<double> loads = {0.15, 0.3, 0.6, 0.9, 1.2};
  std::vector<harness::Series> series;
  for (srv::Flavor f :
       {srv::Flavor::kLock, srv::Flavor::kFlatTm, srv::Flavor::kSemanticTm}) {
    for (double load : loads) series.push_back(srv::series(f, load, requests));
  }

  return harness::run_figure_main(
      "Figure 5: open-system server, sojourn time vs offered load", series,
      {8, 32, 128}, "fig5_srv.csv", cli);
}
