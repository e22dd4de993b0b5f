// Figure 3 — TestCompound (paper Section 6.2).
//
// Each iteration composes TWO map operations with computation between them
// (plus computation before and after).  The Java version must hold a coarse
// lock across the whole compound region to stay atomic — so it barely
// scales.  Atomos runs the entire loop body as one transaction: with a raw
// HashMap it conflicts on internals (little better than the coarse lock);
// with TransactionalMap it is BOTH composable and scalable — the paper's
// "composability without sacrificing concurrency" result.
#include "bench/testmap_common.h"
#include "harness/driver.h"

namespace bench {

/// The compound operation: read one key, compute, update another key.
/// Returns true when the computation finds the transaction doomed.
template <class MapT>
[[nodiscard]] bool compound_op(MapT& map, long key_space, std::uint64_t& s,
                               std::uint64_t inner_think) {
  const long k1 = static_cast<long>(rnd(s) % static_cast<std::uint64_t>(key_space));
  const long k2 = static_cast<long>(rnd(s) % static_cast<std::uint64_t>(key_space));
  auto v = map.get(k1);
  if (sim::Engine::in_worker()) {
    if (atomos::Runtime::active()) {
      if (atomos::Runtime::current().work(inner_think)) return true;
    } else {
      sim::Engine::get().tick(inner_think);
    }
  }
  map.put(k2, v.value_or(0) + 1);
  return false;
}

template <class MakeMap>
harness::Series java_compound(const std::string& name, const TestMapParams& p, MakeMap make_map) {
  return harness::Series{
      name, sim::Mode::kLock,
      [p, make_map](int cpus, std::uint64_t salt, harness::RunResult& out) {
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
                // Coarse lock ACROSS the compound region, including the
                // computation between the two operations.
                atomos::LockGuard g(mu);
                (void)compound_op(*map, p.key_space, s, p.think_cycles);
              }
              (void)atomos::Runtime::current().work(p.think_cycles / 2);
            }
          });
        }
        eng.run();
        collect_stats(eng, out);
      }};
}

template <class MakeMap>
harness::Series atomos_compound(const std::string& name, const TestMapParams& p,
                                MakeMap make_map) {
  return harness::Series{
      name, sim::Mode::kTcc,
      [p, make_map](int cpus, std::uint64_t salt, harness::RunResult& out) {
        sim::Engine eng(make_cfg(sim::Mode::kTcc, cpus));
        atomos::Runtime rt(eng);
        auto map = make_map();
        for (long k = 0; k < p.prepopulate; ++k) map->put(k * 2 % p.key_space, k);
        const int per_cpu = p.total_ops / cpus;
        for (int c = 0; c < cpus; ++c) {
          eng.spawn([&, c, salt] {
            std::uint64_t s = p.seed + salt + static_cast<std::uint64_t>(c) * 7919;
            for (int i = 0; i < per_cpu; ++i) {
              const std::uint64_t body_seed = s;
              atomos::atomically([&] {
                std::uint64_t bs = body_seed;
                if (atomos::work(p.think_cycles / 2)) return;
                if (compound_op(*map, p.key_space, bs, p.think_cycles)) return;
                if (atomos::work(p.think_cycles / 2)) return;
              });
              rnd(s);
              rnd(s);
            }
          });
        }
        eng.run();
        collect_stats(eng, out);
      }};
}

}  // namespace bench

int main(int argc, char** argv) {
  using namespace bench;
  const harness::Cli cli = harness::Cli::parse(argc, argv, "fig3_testcompound");
  TestMapParams p;
  p.total_ops = 3200;
  if (cli.ops > 0) p.total_ops = static_cast<int>(cli.ops);

  auto make_hash = [&p] {
    return std::make_unique<jstd::HashMap<long, long>>(
        static_cast<std::size_t>(p.key_space) * 2);
  };
  auto make_wrapped = [make_hash]() -> std::unique_ptr<jstd::Map<long, long>> {
    return std::make_unique<tcc::TransactionalMap<long, long>>(make_hash());
  };

  std::vector<harness::Series> series;
  series.push_back(java_compound("Java HashMap (coarse lock)", p, make_hash));
  series.push_back(atomos_compound("Atomos HashMap", p, make_hash));
  series.push_back(atomos_compound("Atomos TransactionalMap", p, make_wrapped));

  return harness::run_figure_main("Figure 3: TestCompound (two composed ops + computation)",
                                  series, paper_cpu_counts(), "fig3_testcompound.csv", cli);
}
