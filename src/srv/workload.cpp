#include "srv/workload.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/open_counter.h"
#include "core/txmap.h"
#include "core/txqueue.h"
#include "jstd/hashmap.h"
#include "jstd/linkedqueue.h"
#include "sim/engine.h"
#include "sim/stats.h"
#include "srv/exp_table.h"
#include "tm/chop.h"
#include "tm/mutex.h"
#include "tm/runtime.h"

namespace srv {
namespace {

// Simulated service demand per handler step.  A cache hit answers from the
// session table; a miss additionally pays the simulated backing-store fetch
// and refills the cache line.
constexpr std::uint64_t kThinkHit = 400;
constexpr std::uint64_t kThinkMiss = 2200;
constexpr std::uint64_t kThinkUpdate = 900;
constexpr std::uint64_t kThinkTransfer = 1200;

// Idle workers back off exponentially between queue probes so low-load
// points don't burn simulated cycles (and scheduler events) spinning.
constexpr std::uint64_t kBackoffMin = 64;
constexpr std::uint64_t kBackoffMax = 2048;

std::uint64_t rnd(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 33;
}

enum Stat { kStatHit, kStatMiss, kStatRevenue };

/// The flavor-independent handler logic.  `MapT` is any Map-shaped type
/// (plain jstd::HashMap or TransactionalMap); `bump` records a statistics
/// increment in whatever isolation the flavor uses.  Handlers draw no
/// randomness, so a violated transaction replays bit-identically.  Returns
/// true when the think time finds the transaction doomed
/// (atomos::Runtime::work); the caller's body then returns.
template <class SessionsT, class CacheT, class BumpFn>
[[nodiscard]] bool handle_request(const Request& r, SessionsT& sessions, CacheT& cache,
                                  BumpFn&& bump) {
  switch (r.kind) {
    case 0: {  // session lookup through the cache
      const long slot = r.key % kCacheSlots;
      const auto tag = cache.get(slot);
      (void)sessions.get(r.key);
      if (tag.has_value() && *tag == r.key) {
        if (atomos::work(kThinkHit)) return true;
        bump(kStatHit, 1);
      } else {
        if (atomos::work(kThinkMiss)) return true;
        cache.put(slot, r.key);
        bump(kStatMiss, 1);
      }
      return false;
    }
    case 1: {  // single-session read-modify-write
      const long v = sessions.get(r.key).value_or(0);
      if (atomos::work(kThinkUpdate)) return true;
      sessions.put(r.key, v + r.delta);
      bump(kStatRevenue, r.delta);
      return false;
    }
    default: {  // cross-session transfer (multi-key, conserves the total)
      const long a = sessions.get(r.key).value_or(0);
      const long b = sessions.get(r.key2).value_or(0);
      if (atomos::work(kThinkTransfer)) return true;
      sessions.put(r.key, a - r.delta);
      sessions.put(r.key2, b + r.delta);
      return false;
    }
  }
}

/// End-of-run values a flavor hands to the common audit.
struct Finals {
  long hits = 0;
  long misses = 0;
  long revenue = 0;
  long session_sum = 0;
  long queue_size = 0;
};

void audit(const SrvConfig& cfg, const SrvReport& rep, const Finals& fin) {
  std::ostringstream err;
  if (static_cast<long>(rep.completed) != cfg.requests)
    err << "completed " << rep.completed << " != " << cfg.requests << "; ";
  if (fin.hits + fin.misses != rep.lookups)
    err << "hits " << fin.hits << " + misses " << fin.misses << " != lookups "
        << rep.lookups << "; ";
  if (fin.revenue != rep.expected_revenue)
    err << "revenue " << fin.revenue << " != " << rep.expected_revenue << "; ";
  const long expect_sum = kSessions * kInitialBalance + rep.expected_revenue;
  if (fin.session_sum != expect_sum)
    err << "session sum " << fin.session_sum << " != " << expect_sum << "; ";
  if (fin.queue_size != 0) err << fin.queue_size << " requests stranded; ";
  const std::string msg = err.str();
  if (!msg.empty()) throw std::runtime_error("srv consistency audit: " + msg);
}

}  // namespace

const char* flavor_name(Flavor f) {
  switch (f) {
    case Flavor::kLock: return "Lock";
    case Flavor::kFlatTm: return "Flat TM";
    case Flavor::kChoppedTm: return "Chopped";
    default: return "Semantic";
  }
}

std::vector<Request> make_schedule(const SrvConfig& cfg, int workers,
                                   std::uint64_t salt) {
  // One stream per (seed, salt, workers, load) — NOT per flavor, so every
  // series replays the identical arrival process and request mix.
  std::uint64_t s = kSeed ^ (salt * 0x9E3779B97F4A7C15ULL) ^
                    (static_cast<std::uint64_t>(workers) * 0xBF58476D1CE4E5B9ULL) ^
                    (static_cast<std::uint64_t>(cfg.load * 1e6) * 0x94D049BB133111EBULL);
  rnd(s);
  rnd(s);
  // Poisson arrivals at rate load * workers / kServiceCycles: the mean
  // inter-arrival gap in Q16, scaled by a table-drawn exponential quantile
  // (integer math only; see exp_table.h for why no std::log).
  const double mean_ia =
      static_cast<double>(kServiceCycles) / (cfg.load * workers);
  const auto mean_q16 = static_cast<std::uint64_t>(mean_ia * 65536.0 + 0.5);
  std::vector<Request> reqs(static_cast<std::size_t>(cfg.requests));
  std::uint64_t t = 0;
  for (Request& r : reqs) {
    t += (mean_q16 * kExpQuantileQ16[rnd(s) & 1023]) >> 32;
    r.arrival = t;
    const std::uint64_t roll = rnd(s) % 10;
    if (roll < 7) {
      r.kind = 0;  // lookup: half the traffic hammers the hot keys
      const bool hot = (rnd(s) & 1) != 0;
      r.key = static_cast<long>(
          rnd(s) % static_cast<std::uint64_t>(hot ? kHotKeys : kSessions));
    } else if (roll < 9) {
      r.kind = 1;  // update
      r.key = static_cast<long>(rnd(s) % static_cast<std::uint64_t>(kSessions));
      r.delta = static_cast<long>(1 + rnd(s) % 9);
    } else {
      r.kind = 2;  // transfer between two distinct sessions
      r.key = static_cast<long>(rnd(s) % static_cast<std::uint64_t>(kSessions));
      r.key2 = (r.key + 1 +
                static_cast<long>(rnd(s) % static_cast<std::uint64_t>(kSessions - 1))) %
               kSessions;
      r.delta = static_cast<long>(1 + rnd(s) % 5);
    }
  }
  return reqs;
}

void run_server(Flavor f, const SrvConfig& cfg, int cpus, std::uint64_t salt,
                SrvReport& rep, harness::RunResult* stats_out) {
  if (cpus < 2)
    throw std::runtime_error("srv: need >= 2 CPUs (accept CPU + workers)");
  const int workers = cpus - 1;
  const std::vector<Request> reqs = make_schedule(cfg, workers, salt);
  rep = SrvReport{};
  for (const Request& r : reqs) {
    if (r.kind == 0) ++rep.lookups;
    if (r.kind == 1) ++rep.updates, rep.expected_revenue += r.delta;
    if (r.kind == 2) ++rep.transfers;
  }
  const auto total = static_cast<std::uint64_t>(cfg.requests);

  sim::Config c;
  c.mode = f == Flavor::kLock ? sim::Mode::kLock : sim::Mode::kTcc;
  c.num_cpus = cpus;
  sim::Engine eng(c);
  atomos::Runtime rt(eng);

  // Completion bookkeeping lives OUTSIDE the transactional state: it is
  // only ever touched post-commit (TM flavors run it from an on_commit
  // hook with nothing to compensate), so it adds no read/write-set
  // footprint and no conflicts.
  std::vector<harness::LatencyHistogram> hists(static_cast<std::size_t>(cpus));
  std::uint64_t completed = 0;
  std::uint64_t last_commit = 0;
  auto finish = [&](int cpu, std::uint64_t arrival) {
    const std::uint64_t t = eng.now();
    hists[static_cast<std::size_t>(cpu)].record(t > arrival ? t - arrival : 0);
    ++completed;
    if (t > last_commit) last_commit = t;
  };

  Finals fin;

  if (f == Flavor::kLock) {
    jstd::HashMap<long, long> sessions(1024, "srv.sessions.size", "srv.sessions.table");
    jstd::HashMap<long, long> cache(256, "srv.cache.size", "srv.cache.table");
    jstd::LinkedQueue<long> queue;
    for (long k = 0; k < kSessions; ++k) sessions.put(k, kInitialBalance);
    for (long sl = 0; sl < kCacheSlots; ++sl) cache.put(sl, sl);
    long hits = 0, misses = 0, revenue = 0;
    atomos::Mutex queue_mu;
    atomos::Mutex state_mu;
    auto bump = [&](Stat st, long d) {
      if (st == kStatHit) hits += d;
      else if (st == kStatMiss) misses += d;
      else revenue += d;
    };
    eng.spawn([&] {  // CPU 0: the accept loop
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (eng.now() < reqs[i].arrival) eng.advance_to(reqs[i].arrival);
        atomos::LockGuard g(queue_mu);
        queue.put(static_cast<long>(i));
      }
    });
    for (int w = 0; w < workers; ++w) {
      eng.spawn([&] {
        const int cpu = eng.cpu_id();
        std::uint64_t backoff = kBackoffMin;
        while (completed < total) {
          std::optional<long> idx;
          {
            atomos::LockGuard g(queue_mu);
            idx = queue.poll();
          }
          if (!idx.has_value()) {
            (void)atomos::work(backoff);  // outside a transaction
            backoff = std::min(backoff * 2, kBackoffMax);
            continue;
          }
          backoff = kBackoffMin;
          const Request& r = reqs[static_cast<std::size_t>(*idx)];
          {
            // The classic coarse-grained server: ONE mutex held across the
            // entire handler, think time included — the hot conflict site.
            atomos::LockGuard g(state_mu);
            (void)handle_request(r, sessions, cache, bump);  // lock mode: never doomed
          }
          finish(cpu, r.arrival);
        }
      });
    }
    eng.run();
    fin.hits = hits;
    fin.misses = misses;
    fin.revenue = revenue;
    for (long k = 0; k < kSessions; ++k)
      fin.session_sum += sessions.get(k).value_or(0);
    fin.queue_size = queue.size();
  } else if (f == Flavor::kFlatTm) {
    jstd::HashMap<long, long> sessions(1024, "srv.sessions.size", "srv.sessions.table");
    jstd::HashMap<long, long> cache(256, "srv.cache.size", "srv.cache.table");
    jstd::LinkedQueue<long> queue;
    for (long k = 0; k < kSessions; ++k) sessions.put(k, kInitialBalance);
    for (long sl = 0; sl < kCacheSlots; ++sl) cache.put(sl, sl);
    // Parent-level statistics cells: every handler's read-modify-write of
    // these lands in the flat transaction's read/write set, so any two
    // lookups conflict on hits/misses — the cost semantic counters remove.
    atomos::Shared<long> hits(0, sim::kCounterCell, "srv.hits");
    atomos::Shared<long> misses(0, sim::kCounterCell, "srv.misses");
    atomos::Shared<long> revenue(0, sim::kCounterCell, "srv.revenue");
    auto bump = [&](Stat st, long d) {
      auto& cell = st == kStatHit ? hits : st == kStatMiss ? misses : revenue;
      cell.set(cell.get() + d);
    };
    eng.spawn([&] {  // CPU 0: the accept loop
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (eng.now() < reqs[i].arrival) eng.advance_to(reqs[i].arrival);
        atomos::atomically([&] { queue.put(static_cast<long>(i)); });
      }
    });
    for (int w = 0; w < workers; ++w) {
      eng.spawn([&] {
        const int cpu = eng.cpu_id();
        std::uint64_t backoff = kBackoffMin;
        while (completed < total) {
          const bool got = atomos::atomically([&] {
            // A plain queue inside a flat transaction: the head/size cells
            // join the read/write set, so every dequeue conflicts with
            // every enqueue and every other dequeue.
            auto idx = queue.poll();
            if (!idx.has_value()) return false;
            const Request& r = reqs[static_cast<std::size_t>(*idx)];
            if (handle_request(r, sessions, cache, bump)) return false;  // doomed: retried
            // Completion is recorded only on commit; an abort replays
            // the whole handler, so there is nothing to compensate.
            atomos::on_commit([&finish, cpu, arr = r.arrival] { finish(cpu, arr); },
                              atomos::no_compensation);
            return true;
          });
          if (got) {
            backoff = kBackoffMin;
          } else {
            (void)atomos::work(backoff);  // outside a transaction
            backoff = std::min(backoff * 2, kBackoffMax);
          }
        }
      });
    }
    eng.run();
    // Post-run audit: the engine has halted and every transaction has
    // committed, so the committed values are the truth.
    fin.hits = hits.unsafe_peek();
    fin.misses = misses.unsafe_peek();
    fin.revenue = revenue.unsafe_peek();
    for (long k = 0; k < kSessions; ++k)
      fin.session_sum += sessions.get(k).value_or(0);
    fin.queue_size = queue.size();
  } else {
    tcc::TransactionalMap<long, long> sessions(
        std::make_unique<jstd::HashMap<long, long>>(1024, "srv.sessions.size",
                                                    "srv.sessions.table"),
        tcc::Detection::kOptimistic, "srv.sessions");
    tcc::TransactionalMap<long, long> cache(
        std::make_unique<jstd::HashMap<long, long>>(256, "srv.cache.size",
                                                    "srv.cache.table"),
        tcc::Detection::kOptimistic, "srv.cache");
    tcc::TransactionalQueue<long> queue(
        std::make_unique<jstd::LinkedQueue<long>>(), "srv.queue");
    for (long k = 0; k < kSessions; ++k) sessions.put(k, kInitialBalance);
    for (long sl = 0; sl < kCacheSlots; ++sl) cache.put(sl, sl);
    tcc::CompensatedCounter hits(0, "srv.hits");
    tcc::CompensatedCounter misses(0, "srv.misses");
    tcc::CompensatedCounter revenue(0, "srv.revenue");
    auto bump = [&](Stat st, long d) {
      (st == kStatHit ? hits : st == kStatMiss ? misses : revenue).add(d);
    };
    eng.spawn([&] {  // CPU 0: the accept loop
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (eng.now() < reqs[i].arrival) eng.advance_to(reqs[i].arrival);
        queue.put(static_cast<long>(i));  // buffered put, applied at commit
      }
    });
    for (int w = 0; w < workers; ++w) {
      eng.spawn([&] {
        const int cpu = eng.cpu_id();
        std::uint64_t backoff = kBackoffMin;
        while (completed < total) {
          bool got = false;
          if (f == Flavor::kChoppedTm) {
            // Chopped handler: the dequeue and the handler body commit as
            // separate ordered pieces, so a session/cache conflict in
            // the body never forces the dequeue to replay, and the body's
            // conflict window excludes the queue traffic entirely.  The
            // take piece's compensation re-enqueues the request (the
            // abort-path mirror of TransactionalQueue's own put-back).
            std::optional<long> idx;
            atomos::chopped()
                .piece("take",
                       [&] {
                         // take() observes no emptiness/ordering (Table 7).
                         idx = queue.take();
                       },
                       /*compensate=*/
                       [&] {
                         if (idx.has_value()) queue.put(*idx);
                       })
                .piece("handle",
                       [&] {
                         if (!idx.has_value()) return;
                         const Request& r = reqs[static_cast<std::size_t>(*idx)];
                         if (handle_request(r, sessions, cache, bump)) return;
                         atomos::on_commit(
                             [&finish, cpu, arr = r.arrival] { finish(cpu, arr); },
                             atomos::no_compensation);
                       },
                       atomos::no_compensation)  // final piece
                .run();
            got = idx.has_value();
          } else {
            got = atomos::atomically([&] {
              // take() observes no emptiness and no ordering (Table 7), so
              // worker dequeues commute with puts and with each other.
              auto idx = queue.take();
              if (!idx.has_value()) return false;
              const Request& r = reqs[static_cast<std::size_t>(*idx)];
              if (handle_request(r, sessions, cache, bump)) return false;  // doomed: retried
              atomos::on_commit([&finish, cpu, arr = r.arrival] { finish(cpu, arr); },
                                atomos::no_compensation);
              return true;
            });
          }
          if (got) {
            backoff = kBackoffMin;
          } else {
            (void)atomos::work(backoff);  // outside a transaction
            backoff = std::min(backoff * 2, kBackoffMax);
          }
        }
      });
    }
    eng.run();
    rep.chop_pieces = rt.chop_stats().pieces;
    rep.chop_dep_breaks = rt.chop_stats().dep_breaks;
    // Post-run audit: the engine has halted and every transaction has
    // committed, so the committed values are the truth.
    fin.hits = hits.unsafe_peek();
    fin.misses = misses.unsafe_peek();
    fin.revenue = revenue.unsafe_peek();
    for (long k = 0; k < kSessions; ++k)
      fin.session_sum += sessions.get(k).value_or(0);
    fin.queue_size = queue.size();
  }

  rep.completed = completed;
  rep.last_commit = last_commit;
  for (const auto& h : hists) rep.sojourn += h;
  rep.hits = fin.hits;
  rep.misses = fin.misses;
  rep.revenue = fin.revenue;
  rep.session_sum = fin.session_sum;
  if (stats_out != nullptr) {
    const sim::CpuStats s = eng.stats().summed();
    stats_out->cycles = eng.elapsed_cycles();
    stats_out->violations = s.violations;
    stats_out->semantic = s.semantic_violations;
    stats_out->lost_cycles = s.lost_cycles;
    stats_out->commits = s.commits;
  }
  audit(cfg, rep, fin);
}

harness::Series series(Flavor f, double load, int requests) {
  SrvConfig cfg;
  cfg.load = load;
  cfg.requests = requests;
  std::ostringstream name;
  name << flavor_name(f) << " load=" << load;
  const sim::Mode mode = f == Flavor::kLock ? sim::Mode::kLock : sim::Mode::kTcc;
  return harness::Series{
      name.str(), mode,
      [f, cfg](int cpus, std::uint64_t salt, harness::RunResult& out) {
        SrvReport rep;
        run_server(f, cfg, cpus, salt, rep, &out);
        const int workers = cpus - 1;
        const double offered =
            1e6 * cfg.load * workers / static_cast<double>(kServiceCycles);
        const double tput =
            rep.last_commit == 0
                ? 0.0
                : 1e6 * static_cast<double>(rep.completed) /
                      static_cast<double>(rep.last_commit);
        out.extras = {
            {"load", cfg.load},
            {"offered_per_mcyc", offered},
            {"tput_per_mcyc", tput},
            {"p50", static_cast<double>(rep.sojourn.quantile(0.50))},
            {"p99", static_cast<double>(rep.sojourn.quantile(0.99))},
            {"p999", static_cast<double>(rep.sojourn.quantile(0.999))},
        };
      }};
}

}  // namespace srv
