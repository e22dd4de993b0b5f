// Quickstart: wrap a map, run long transactions on many virtual CPUs.
//
//   $ ./examples/quickstart
//
// Demonstrates the library's core promise in ~40 lines: take an existing
// java.util-style HashMap, wrap it in a TransactionalMap, and long-running
// transactions touching DIFFERENT keys stop conflicting — while everything
// stays atomic and isolated.
#include <cstdio>

#include "core/txmap.h"
#include "jstd/hashmap.h"

int main() {
  // 1. A simulated 8-CPU chip running TCC-style transactional memory.
  sim::Config cfg;
  cfg.num_cpus = 8;
  cfg.mode = sim::Mode::kTcc;
  sim::Engine engine(cfg);
  atomos::Runtime runtime(engine);

  // 2. An ordinary chained hash map, wrapped in the transactional
  //    collection class.  Same interface: a drop-in replacement.
  tcc::TransactionalMap<long, long> map(
      std::make_unique<jstd::HashMap<long, long>>(1024));

  // 3. Eight workers, each running long transactions that insert a few
  //    thousand DISTINCT keys with computation in between.
  for (int cpu = 0; cpu < 8; ++cpu) {
    engine.spawn([&, cpu] {
      for (long i = 0; i < 50; ++i) {
        atomos::atomically([&] {
          const long key = cpu * 1000 + i;
          map.put(key, key * key);
          if (atomos::work(500)) return;  // business logic; true: doomed, so return
          if (auto v = map.get(key); !v.has_value() || *v != key * key) {
            std::printf("lost our own write?!\n");
          }
        });
      }
    });
  }
  engine.run();

  // 4. Result: 400 inserts committed; with the wrapper there are no
  //    memory-level conflicts on the map's internal size field, so the
  //    workers never violated each other.
  std::printf("entries committed : %ld\n", map.inner().size());
  std::printf("simulated cycles  : %llu\n",
              static_cast<unsigned long long>(engine.elapsed_cycles()));
  std::printf("parent violations : %llu   (try the same with a raw HashMap!)\n",
              static_cast<unsigned long long>(
                  engine.stats().total(&sim::CpuStats::violations)));
  return 0;
}
