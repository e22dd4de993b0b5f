// Composability example: atomic transfers across two transactional maps.
//
// The paper's key claim against raw open nesting: transactional collection
// classes let you COMPOSE several operations — even across several
// collections — into one atomic unit.  Here `checking` and `savings` are
// two independent TransactionalMaps; transfers move money between them and
// an auditor transaction sums both.  The global invariant (total balance is
// constant) must hold in every audit, under heavy concurrency.
#include <cstdio>

#include "core/txmap.h"
#include "jstd/hashmap.h"

int main() {
  constexpr int kCpus = 8;
  constexpr long kAccounts = 64;
  constexpr long kInitial = 1000;

  sim::Config cfg;
  cfg.num_cpus = kCpus;
  cfg.mode = sim::Mode::kTcc;
  sim::Engine engine(cfg);
  atomos::Runtime runtime(engine);

  tcc::TransactionalMap<long, long> checking(
      std::make_unique<jstd::HashMap<long, long>>(256));
  tcc::TransactionalMap<long, long> savings(
      std::make_unique<jstd::HashMap<long, long>>(256));
  for (long a = 0; a < kAccounts; ++a) {
    checking.put(a, kInitial);
    savings.put(a, kInitial);
  }
  const long expected_total = 2 * kAccounts * kInitial;

  long audits_ok = 0;
  long audits_bad = 0;

  for (int cpu = 0; cpu < kCpus; ++cpu) {
    engine.spawn([&, cpu] {
      std::uint64_t s = 1234 + static_cast<std::uint64_t>(cpu) * 77;
      auto rnd = [&s] {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
      };
      for (int i = 0; i < 60; ++i) {
        if (cpu == 0 && i % 6 == 0) {
          // Auditor: one transaction reads EVERY balance in both maps.
          atomos::atomically([&] {
            long total = 0;
            for (auto it = checking.iterator(); it->has_next();) total += it->next().second;
            for (auto it = savings.iterator(); it->has_next();) total += it->next().second;
            // Record on commit only: aborted audits don't count, and there
            // is nothing to compensate.  The tallies own the handler.
            atomos::Runtime::current().on_top_commit(
                &audits_ok, [&, total] { (total == expected_total ? audits_ok : audits_bad)++; },
                atomos::no_compensation);
          });
          continue;
        }
        // Transfer: withdraw from one ledger, deposit into the other.
        const long from = static_cast<long>(rnd() % kAccounts);
        const long to = static_cast<long>(rnd() % kAccounts);
        const long amount = 1 + static_cast<long>(rnd() % 50);
        atomos::atomically([&] {
          const long c = checking.get(from).value_or(0);
          if (atomos::work(200)) return;  // interleaving window: isolation must hold
          checking.put(from, c - amount);
          const long v = savings.get(to).value_or(0);
          savings.put(to, v + amount);
        });
      }
    });
  }
  engine.run();

  long final_total = 0;
  for (auto it = checking.iterator(); it->has_next();) final_total += it->next().second;
  for (auto it = savings.iterator(); it->has_next();) final_total += it->next().second;

  std::printf("audits consistent   : %ld\n", audits_ok);
  std::printf("audits inconsistent : %ld   (must be 0)\n", audits_bad);
  std::printf("final total         : %ld (expected %ld)\n", final_total, expected_total);
  std::printf("violations survived : %llu\n",
              static_cast<unsigned long long>(
                  engine.stats().total(&sim::CpuStats::violations) +
                  engine.stats().total(&sim::CpuStats::semantic_violations)));
  return (audits_bad == 0 && final_total == expected_total) ? 0 : 1;
}
