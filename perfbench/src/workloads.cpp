#include "workloads.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/testmap_common.h"
#include "jbb/engine.h"
#include "observe.h"
#include "sim/engine.h"
#include "srv/workload.h"

namespace perfbench {
namespace {

using bench::rnd;
using bench::TestMapParams;

// ---- collections: fig1 / fig2 / fig3 (bench/fig{1,2,3}_*.cpp) ----

/// fig2's operation: 80% subMap range medians / 10% put / 10% remove.
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

/// fig3's compound operation: read one key, compute, update another.
template <class MapT>
void compound_op(MapT& map, long key_space, std::uint64_t& s, std::uint64_t inner_think) {
  const long k1 = static_cast<long>(rnd(s) % static_cast<std::uint64_t>(key_space));
  const long k2 = static_cast<long>(rnd(s) % static_cast<std::uint64_t>(key_space));
  auto v = map.get(k1);
  if (sim::Engine::in_worker()) {
    if (atomos::Runtime::active()) {
      atomos::Runtime::current().work(inner_think);
    } else {
      sim::Engine::get().tick(inner_think);
    }
  }
  map.put(k2, v.value_or(0) + 1);
}

// One operation of a figure, applied to a map: op(map, params, rng).
struct TestMapOp {
  template <class MapT>
  void operator()(MapT& m, const TestMapParams& p, std::uint64_t& s) const {
    bench::testmap_op(m, p.key_space, s);
  }
};
struct SortedMapOp {
  template <class MapT>
  void operator()(MapT& m, const TestMapParams& p, std::uint64_t& s) const {
    testsortedmap_op(m, p.key_space, s);
  }
};
struct CompoundOp {
  template <class MapT>
  void operator()(MapT& m, const TestMapParams& p, std::uint64_t& s) const {
    compound_op(m, p.key_space, s, p.think_cycles);
  }
};

/// "Java <Map>": lock mode, a mutex held around each operation.
template <class Op, class MakeMap>
harness::Series java_series(const std::string& name, const TestMapParams& p,
                            MakeMap make_map) {
  return harness::Series{
      name, sim::Mode::kLock,
      [p, make_map](int cpus, std::uint64_t salt, harness::RunResult& out) {
        sim::Engine eng(bench::make_cfg(sim::Mode::kLock, cpus));
        atomos::Runtime rt(eng);
        auto map = make_map();
        for (long k = 0; k < p.prepopulate; ++k) map->put(k * 2 % p.key_space, k);
        atomos::Mutex mu;
        const int per_cpu = p.total_ops / cpus;
        for (int c = 0; c < cpus; ++c) {
          eng.spawn([&, c, salt] {
            std::uint64_t s = p.seed + salt + static_cast<std::uint64_t>(c) * 7919;
            for (int i = 0; i < per_cpu; ++i) {
              atomos::Runtime::current().work(p.think_cycles / 2);
              {
                atomos::LockGuard g(mu);
                Op{}(*map, p, s);
              }
              atomos::Runtime::current().work(p.think_cycles / 2);
            }
          });
        }
        run_engine(eng, rt);
        bench::collect_stats(eng, out);
      }};
}

/// "Atomos <Map>": the whole (compute, op, compute) body is one transaction.
template <class Op, class MakeMap>
harness::Series atomos_series(const std::string& name, const TestMapParams& p,
                              MakeMap make_map) {
  return harness::Series{
      name, sim::Mode::kTcc,
      [p, make_map](int cpus, std::uint64_t salt, harness::RunResult& out) {
        sim::Engine eng(bench::make_cfg(sim::Mode::kTcc, cpus));
        atomos::Runtime rt(eng);
        auto map = make_map();
        for (long k = 0; k < p.prepopulate; ++k) map->put(k * 2 % p.key_space, k);
        const int per_cpu = p.total_ops / cpus;
        for (int c = 0; c < cpus; ++c) {
          eng.spawn([&, c, salt] {
            std::uint64_t s = p.seed + salt + static_cast<std::uint64_t>(c) * 7919;
            for (int i = 0; i < per_cpu; ++i) {
              const std::uint64_t body_seed = s;  // retries replay the same op
              atomos::atomically([&] {
                std::uint64_t bs = body_seed;
                atomos::work(p.think_cycles / 2);
                Op{}(*map, p, bs);
                atomos::work(p.think_cycles / 2);
              });
              rnd(s);
              rnd(s);
            }
          });
        }
        run_engine(eng, rt);
        bench::collect_stats(eng, out);
      }};
}

template <class Op, class MakePlain, class MakeWrapped>
Figure map_figure(const std::string& name, const std::string& title, const TestMapParams& p,
                  const std::string& java_name, const std::string& plain_name,
                  const std::string& wrapped_name, MakePlain make_plain,
                  MakeWrapped make_wrapped) {
  Figure f;
  f.name = name;
  f.title = title;
  f.cpus = bench::paper_cpu_counts();
  f.trace_events = std::size_t{1} << 19;
  f.series.push_back({java_series<Op>(java_name, p, make_plain), name + ".java", "jstd",
                      p.total_ops});
  f.series.push_back({atomos_series<Op>(plain_name, p, make_plain), name + ".atomos", "jstd",
                      p.total_ops});
  f.series.push_back({atomos_series<Op>(wrapped_name, p, make_wrapped), name + ".transactional",
                      "core", p.total_ops});
  return f;
}

std::vector<Figure> collections() {
  TestMapParams p1;  // fig1 / fig3 defaults: 3200 ops, 4000 think cycles
  auto make_hash = [key_space = p1.key_space] {
    return std::make_unique<jstd::HashMap<long, long>>(static_cast<std::size_t>(key_space) * 2);
  };
  auto wrap_hash = [make_hash]() -> std::unique_ptr<jstd::Map<long, long>> {
    return std::make_unique<tcc::TransactionalMap<long, long>>(make_hash());
  };
  TestMapParams p2;
  p2.total_ops = 2400;
  p2.think_cycles = 10000;
  auto make_tree = [] { return std::make_unique<jstd::TreeMap<long, long>>(); };
  auto wrap_tree = [make_tree]() -> std::unique_ptr<jstd::SortedMap<long, long>> {
    return std::make_unique<tcc::TransactionalSortedMap<long, long>>(make_tree());
  };
  std::vector<Figure> figs;
  figs.push_back(map_figure<TestMapOp>("fig1_testmap", "Figure 1: TestMap", p1,
                                       "Java HashMap", "Atomos HashMap",
                                       "Atomos TransactionalMap", make_hash, wrap_hash));
  figs.push_back(map_figure<SortedMapOp>("fig2_testsortedmap", "Figure 2: TestSortedMap", p2,
                                         "Java TreeMap", "Atomos TreeMap",
                                         "Atomos TransactionalSortedMap", make_tree, wrap_tree));
  figs.push_back(map_figure<CompoundOp>("fig3_testcompound", "Figure 3: TestCompound", p1,
                                        "Java HashMap (coarse lock)", "Atomos HashMap",
                                        "Atomos TransactionalMap", make_hash, wrap_hash));
  return figs;
}

// ---- jbb: fig4 (bench/fig4_specjbb.cpp) ----

/// A consistency failure throws, so the driver poisons the point instead of
/// counting it as ok.
harness::Series jbb_series(const std::string& name, jbb::Flavor flavor, int total_ops) {
  const sim::Mode mode = flavor == jbb::Flavor::kJava ? sim::Mode::kLock : sim::Mode::kTcc;
  return harness::Series{
      name, mode,
      [name, flavor, mode, total_ops](int cpus, std::uint64_t salt, harness::RunResult& out) {
        jbb::JbbConfig jc;
        jc.flavor = flavor;
        jc.districts = 10;
        jc.items = 2000;
        jc.customers_per_district = 60;
        jc.think_cycles = 1200;
        sim::Engine eng(bench::make_cfg(mode, cpus));
        atomos::Runtime rt(eng);
        jbb::Engine engine(jc);
        const int per_cpu = total_ops / cpus;
        std::vector<jbb::OpCounts> counts(static_cast<std::size_t>(cpus));
        for (int c = 0; c < cpus; ++c) {
          eng.spawn([&, c, salt] {
            std::uint64_t rng = 4242 + salt + static_cast<std::uint64_t>(c) * 6151;
            for (int i = 0; i < per_cpu; ++i) {
              const int d = static_cast<int>((rng >> 40) % 10);
              engine.run_mixed_op(d, rng, counts[static_cast<std::size_t>(c)]);
            }
          });
        }
        run_engine(eng, rt);
        std::string why;
        if (!engine.check_consistency(&why)) {
          throw std::runtime_error("jbb consistency failure [" + name +
                                   " cpus=" + std::to_string(cpus) + "]: " + why);
        }
        bench::collect_stats(eng, out);
      }};
}

std::vector<Figure> jbb_workload() {
  constexpr int kRequests = 3200;
  Figure f;
  f.name = "fig4_specjbb";
  f.title = "Figure 4: SPECjbb2000, single warehouse";
  f.cpus = bench::paper_cpu_counts();
  f.timeout_sec = 1800.0;
  f.trace_events = std::size_t{1} << 22;  // retries at 128 CPUs need ~32k per CPU
  const struct {
    const char* name;
    jbb::Flavor flavor;
    const char* tag;
    const char* layer;
  } flavors[] = {
      {"Java", jbb::Flavor::kJava, "jbb.java", "jstd"},
      {"Atomos Baseline", jbb::Flavor::kAtomosBaseline, "jbb.baseline", "jstd"},
      {"Atomos Open", jbb::Flavor::kAtomosOpen, "jbb.open", "jstd"},
      {"Atomos Transactional", jbb::Flavor::kAtomosTransactional, "jbb.transactional", "core"},
  };
  for (const auto& fl : flavors) {
    f.series.push_back({jbb_series(fl.name, fl.flavor, kRequests), fl.tag, fl.layer, kRequests});
  }
  return {f};
}

// ---- srv: fig5 (bench/fig5_srv.cpp) ----

std::vector<Figure> srv_workload() {
  constexpr int kRequests = 1200;
  Figure f;
  f.name = "fig5_srv";
  f.title = "Figure 5: open-system server";
  f.cpus = {8, 32, 128};
  f.timeout_sec = 1800.0;
  f.engine_visible = false;
  f.ops_split_over_cpus = false;  // every point serves all the requests
  const struct {
    srv::Flavor flavor;
    const char* tag;
    const char* layer;
  } flavors[] = {
      {srv::Flavor::kLock, "srv.lock", "jstd"},
      {srv::Flavor::kFlatTm, "srv.flat", "jstd"},
      {srv::Flavor::kSemanticTm, "srv.semantic", "core"},
  };
  for (const auto& fl : flavors) {
    for (const double load : {0.15, 0.3, 0.6, 0.9, 1.2}) {
      f.series.push_back({srv::series(fl.flavor, load, kRequests), fl.tag, fl.layer, kRequests});
    }
  }
  return {f};
}

}  // namespace

std::vector<Figure> make_workload(const std::string& name) {
  if (name == "jbb") return jbb_workload();
  if (name == "srv") return srv_workload();
  if (name == "collections") return collections();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
