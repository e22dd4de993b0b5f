// Shared machinery for the TestMap-family benchmarks (paper Section 6.2).
//
// TestMap performs a mixture of operations against ONE shared Map from
// every CPU: 80% lookups, 10% insertions, 10% removals, each surrounded by
// computation.  In the Atomos series the whole (computation + operation)
// body is a single long transaction; in the Java series a mutex is held
// only around the operation itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/txmap.h"
#include "core/txsortedmap.h"
#include "harness/speedup.h"
#include "jstd/hashmap.h"
#include "jstd/treemap.h"
#include "tm/mutex.h"
#include "tm/runtime.h"

namespace bench {

struct TestMapParams {
  long key_space = 512;
  long prepopulate = 256;
  int total_ops = 3200;            ///< fixed total work, divided over CPUs
  std::uint64_t think_cycles = 4000;  ///< computation surrounding each op
  std::uint64_t seed = 12345;
};

inline std::uint64_t rnd(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 33;
}

/// One 80/10/10 operation against `map`.
template <class MapT>
void testmap_op(MapT& map, long key_space, std::uint64_t& s) {
  const long key = static_cast<long>(rnd(s) % static_cast<std::uint64_t>(key_space));
  const std::uint64_t roll = rnd(s) % 10;
  if (roll < 8) {
    (void)map.get(key);
  } else if (roll < 9) {
    (void)map.put(key, key);
  } else {
    (void)map.remove(key);
  }
}

/// Figure 2's operation against a SortedMap: 80% range-median lookups
/// (collect subMap(key, key+8), take the median key) / 10% puts / 10%
/// removes.
template <class MapT>
void testsortedmap_op(MapT& map, long key_space, std::uint64_t& s) {
  const long key = static_cast<long>(rnd(s) % static_cast<std::uint64_t>(key_space));
  const std::uint64_t roll = rnd(s) % 10;
  if (roll < 8) {
    std::vector<long> keys;
    for (auto it = map.range_iterator(key, key + 8); it->has_next();)
      keys.push_back(it->next().first);
    if (!keys.empty()) (void)keys[keys.size() / 2];
  } else if (roll < 9) {
    (void)map.put(key, key);
  } else {
    (void)map.remove(key);
  }
}

/// The operations above as function objects, for the series templates.
struct TestMapOp {
  template <class MapT>
  void operator()(MapT& map, long key_space, std::uint64_t& s) const {
    testmap_op(map, key_space, s);
  }
};
struct TestSortedMapOp {
  template <class MapT>
  void operator()(MapT& map, long key_space, std::uint64_t& s) const {
    testsortedmap_op(map, key_space, s);
  }
};

/// Figure 2's parameters: range scans are heavier than point lookups, so
/// fewer operations with more compute around each keep the compute-to-scan
/// ratio paper-like.
inline TestMapParams testsortedmap_params() {
  TestMapParams p;
  p.total_ops = 2400;
  p.think_cycles = 10000;
  return p;
}

using harness::collect_stats;

inline sim::Config make_cfg(sim::Mode mode, int cpus) {
  sim::Config c;
  c.mode = mode;
  c.num_cpus = cpus;
  return c;
}

/// "Java <Map>": lock-mode run, mutex held only around each `op`.
/// `salt` perturbs every worker's RNG seed for `--trials`; salt 0 is the
/// canonical run.
template <class MakeMap, class Op = TestMapOp>
harness::Series java_series(const std::string& name, const TestMapParams& p, MakeMap make_map,
                            Op op = {}) {
  return harness::Series{
      name, sim::Mode::kLock,
      [p, make_map, op](int cpus, std::uint64_t salt, harness::RunResult& out) {
        sim::Engine eng(make_cfg(sim::Mode::kLock, cpus));
        atomos::Runtime rt(eng);
        auto map = make_map();
        for (long k = 0; k < p.prepopulate; ++k) map->put(k * 2 % p.key_space, k);
        atomos::Mutex mu;
        const int per_cpu = p.total_ops / cpus;
        for (int c = 0; c < cpus; ++c) {
          eng.spawn([&, c, salt] {
            std::uint64_t s = p.seed + salt + static_cast<std::uint64_t>(c) * 7919;
            for (int i = 0; i < per_cpu; ++i) {
              (void)atomos::Runtime::current().work(p.think_cycles / 2);  // lock mode
              {
                atomos::LockGuard g(mu);  // short critical section
                op(*map, p.key_space, s);
              }
              (void)atomos::Runtime::current().work(p.think_cycles / 2);
            }
          });
        }
        eng.run();
        collect_stats(eng, out);
      }};
}

/// "Atomos <Map>": the whole (compute, op, compute) body is one transaction.
template <class MakeMap, class Op = TestMapOp>
harness::Series atomos_series(const std::string& name, const TestMapParams& p, MakeMap make_map,
                              Op op = {}) {
  return harness::Series{
      name, sim::Mode::kTcc,
      [p, make_map, op](int cpus, std::uint64_t salt, harness::RunResult& out) {
        sim::Engine eng(make_cfg(sim::Mode::kTcc, cpus));
        atomos::Runtime rt(eng);
        auto map = make_map();
        for (long k = 0; k < p.prepopulate; ++k) map->put(k * 2 % p.key_space, k);
        const int per_cpu = p.total_ops / cpus;
        for (int c = 0; c < cpus; ++c) {
          eng.spawn([&, c, salt] {
            std::uint64_t s = p.seed + salt + static_cast<std::uint64_t>(c) * 7919;
            for (int i = 0; i < per_cpu; ++i) {
              std::uint64_t body_seed = s;  // retries replay the same op
              atomos::atomically([&] {
                std::uint64_t bs = body_seed;
                if (atomos::work(p.think_cycles / 2)) return;
                op(*map, p.key_space, bs);
                if (atomos::work(p.think_cycles / 2)) return;
              });
              // advance the thread RNG past the consumed draws
              rnd(s);
              rnd(s);
            }
          });
        }
        eng.run();
        collect_stats(eng, out);
      }};
}

/// The paper's CPU axis (1..32) extended to 64 and 128 now that the engine
/// scales there; pre-existing points keep their exact simulated cycles, the
/// new points only append rows to each figure CSV.
inline std::vector<int> paper_cpu_counts() { return {1, 2, 4, 8, 16, 32, 64, 128}; }

}  // namespace bench
