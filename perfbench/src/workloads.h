// The benchmark's three workloads, built from the figure sweeps at their
// committed sizes, so every point has a golden CSV row:
//
//   jbb          fig4: 4 SPECjbb flavors x CPUs 1..128, 3200 requests/point
//   srv          fig5: 3 flavors x 5 loads x CPUs 8/32/128, 1200 requests/point
//   collections  fig1 + fig2 + fig3: 9 map series x CPUs 1..128
//
// The jbb and collections series mirror bench/fig{1,2,3,4}_*.cpp body for
// body, except that they run their Engine through perfbench::run_engine so
// the traced run can reach it; the golden rows check that the mirror is
// exact.  The srv series are srv::series itself.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "harness/speedup.h"

namespace perfbench {

struct SeriesDef {
  harness::Series series;
  std::string tag;    ///< per-series report key, e.g. "jbb.java"
  std::string layer;  ///< collection layer it runs on: "jstd" or "core"
  long ops = 0;       ///< operations per point (see Figure::ops_per_point)
};

struct Figure {
  std::string name;  ///< golden CSV stem, e.g. "fig4_specjbb"
  std::string title;
  std::vector<SeriesDef> series;
  std::vector<int> cpus;
  double timeout_sec = 120.0;  ///< the figure binary's default --timeout
  bool engine_visible = true;  ///< false: points build their Engine out of reach
  bool ops_split_over_cpus = true;  ///< each CPU runs ops / cpus (closed loop)
  /// Trace events one traced point may record, split evenly over its CPUs;
  /// 0 keeps the tracer's per-CPU default.
  std::size_t trace_events = 0;

  /// Operations one point simulates.
  long ops_per_point(const SeriesDef& s, int cpus) const {
    return ops_split_over_cpus ? s.ops / cpus * cpus : s.ops;
  }
};

/// The figures of workload `name` ("jbb", "srv" or "collections"); throws
/// std::invalid_argument for any other name.
std::vector<Figure> make_workload(const std::string& name);

}  // namespace perfbench
