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

/// Statistics counters as each flavour holds them: a plain long under the
/// lock, a parent-level cell in a flat transaction, an open-nested
/// compensated counter.
void add(long& c, long d) { c += d; }
void add(atomos::Shared<long>& c, long d) { c.set(c.get() + d); }
void add(tcc::CompensatedCounter& c, long d) { c.add(d); }
long committed(long c) { return c; }
template <class C>
long committed(const C& c) {
  return c.unsafe_peek();
}

/// The flavor-independent handler logic over a server's session table,
/// cache and counters (plain or transactional, see the servers below).
/// Handlers draw no randomness, so a violated transaction replays
/// bit-identically.  Returns true when the think time finds the
/// transaction doomed (atomos::Runtime::work); the caller's body then
/// returns.
template <class Server>
[[nodiscard]] bool handle_request(const Request& r, Server& s) {
  switch (r.kind) {
    case 0: {  // session lookup through the cache
      const long slot = r.key % kCacheSlots;
      const auto tag = s.cache.get(slot);
      (void)s.sessions.get(r.key);
      if (tag.has_value() && *tag == r.key) {
        if (atomos::work(kThinkHit)) return true;
        add(s.hits, 1);
      } else {
        if (atomos::work(kThinkMiss)) return true;
        s.cache.put(slot, r.key);
        add(s.misses, 1);
      }
      return false;
    }
    case 1: {  // single-session read-modify-write
      const long v = s.sessions.get(r.key).value_or(0);
      if (atomos::work(kThinkUpdate)) return true;
      s.sessions.put(r.key, v + r.delta);
      add(s.revenue, r.delta);
      return false;
    }
    default: {  // cross-session transfer (multi-key, conserves the total)
      const long a = s.sessions.get(r.key).value_or(0);
      const long b = s.sessions.get(r.key2).value_or(0);
      if (atomos::work(kThinkTransfer)) return true;
      s.sessions.put(r.key, a - r.delta);
      s.sessions.put(r.key2, b + r.delta);
      return false;
    }
  }
}

/// A TM flavour's handler in the calling transaction: false when the think
/// time finds it doomed (it restarts), else the completion is recorded at
/// commit.  An abort replays the whole handler, so the completion has
/// nothing to compensate.
template <class Handle, class Finish>
bool handle_at_commit(long idx, Handle& handle, Finish& finish) {
  if (handle(idx)) return false;
  atomos::on_commit([&finish, idx] { finish(idx); }, atomos::no_compensation);
  return true;
}

/// The Flat and Semantic flavours' worker step: one transaction that
/// dequeues a request and handles it.
template <class Dequeue, class Handle, class Finish>
bool serve_in_txn(Dequeue&& dequeue, Handle& handle, Finish& finish) {
  return atomos::atomically([&] {
    const std::optional<long> idx = dequeue();
    return idx.has_value() && handle_at_commit(*idx, handle, finish);
  });
}

// The flavours' state: the session table, the lookup cache, the work queue
// of request indices and the hit/miss/revenue counters, each in the
// flavour's isolation.  `enqueue` is the accept CPU's step; `serve` is a
// worker's, false when the queue was empty or the handler doomed (the
// worker backs off).  `handle(idx)` runs request idx's handler, true when
// doomed; `finish(idx)` records its completion.

/// kLock: a short queue mutex and ONE coarse mutex held across the whole
/// handler, think time included: the hot conflict site.
struct LockServer {
  jstd::HashMap<long, long> sessions{1024, "srv.sessions.size", "srv.sessions.table"};
  jstd::HashMap<long, long> cache{256, "srv.cache.size", "srv.cache.table"};
  jstd::LinkedQueue<long> queue;
  long hits = 0, misses = 0, revenue = 0;
  atomos::Mutex queue_mu;
  atomos::Mutex state_mu;

  void enqueue(long idx) {
    atomos::LockGuard g(queue_mu);
    queue.put(idx);
  }
  template <class Handle, class Finish>
  bool serve(Handle& handle, Finish& finish) {
    std::optional<long> idx;
    {
      atomos::LockGuard g(queue_mu);
      idx = queue.poll();
    }
    if (!idx.has_value()) return false;
    {
      atomos::LockGuard g(state_mu);
      (void)handle(*idx);  // lock mode: never doomed
    }
    finish(*idx);
    return true;
  }
};

/// kFlatTm: the same plain collections in one flat transaction per handler.
/// The queue's head/size cells and the parent-level counter cells join
/// every read/write set, so every dequeue conflicts with every enqueue and
/// any two lookups conflict on hits/misses: the cost semantic counters and
/// the semantic queue remove.
struct FlatServer {
  jstd::HashMap<long, long> sessions{1024, "srv.sessions.size", "srv.sessions.table"};
  jstd::HashMap<long, long> cache{256, "srv.cache.size", "srv.cache.table"};
  jstd::LinkedQueue<long> queue;
  atomos::Shared<long> hits{0, sim::kCounterCell, "srv.hits"};
  atomos::Shared<long> misses{0, sim::kCounterCell, "srv.misses"};
  atomos::Shared<long> revenue{0, sim::kCounterCell, "srv.revenue"};

  void enqueue(long idx) {
    atomos::atomically([&] { queue.put(idx); });
  }
  template <class Handle, class Finish>
  bool serve(Handle& handle, Finish& finish) {
    return serve_in_txn([&] { return queue.poll(); }, handle, finish);
  }
};

/// kSemanticTm and kChoppedTm: the paper's semantic collections and
/// open-nested counters.
struct SemanticServer {
  explicit SemanticServer(bool chop) : chopped(chop) {}

  const bool chopped;
  tcc::TransactionalMap<long, long> sessions{
      std::make_unique<jstd::HashMap<long, long>>(1024, "srv.sessions.size",
                                                  "srv.sessions.table"),
      tcc::Detection::kOptimistic, "srv.sessions"};
  tcc::TransactionalMap<long, long> cache{
      std::make_unique<jstd::HashMap<long, long>>(256, "srv.cache.size", "srv.cache.table"),
      tcc::Detection::kOptimistic, "srv.cache"};
  tcc::TransactionalQueue<long> queue{std::make_unique<jstd::LinkedQueue<long>>(),
                                      "srv.queue"};
  tcc::CompensatedCounter hits{0, "srv.hits"};
  tcc::CompensatedCounter misses{0, "srv.misses"};
  tcc::CompensatedCounter revenue{0, "srv.revenue"};

  void enqueue(long idx) { queue.put(idx); }  // buffered put, applied at commit
  template <class Handle, class Finish>
  bool serve(Handle& handle, Finish& finish) {
    // take() observes no emptiness and no ordering (Table 7), so worker
    // dequeues commute with puts and with each other.
    if (!chopped) return serve_in_txn([&] { return queue.take(); }, handle, finish);
    // Chopped: the dequeue and the handler commit as separate ordered
    // pieces, so a session/cache conflict in the handler never forces the
    // dequeue to replay, and the handler's conflict window excludes the
    // queue traffic entirely.  The take piece's compensation re-enqueues
    // the request (the abort-path mirror of TransactionalQueue's own
    // put-back).
    std::optional<long> idx;
    atomos::chopped()
        .piece("take", [&] { idx = queue.take(); },
               /*compensate=*/
               [&] {
                 if (idx.has_value()) queue.put(*idx);
               })
        .piece("handle",
               [&] {
                 if (idx.has_value()) (void)handle_at_commit(*idx, handle, finish);
               },
               atomos::no_compensation)  // final piece
        .run();
    return idx.has_value();
  }
};

/// Prepopulates `s`, runs `reqs` through it on `eng` (CPU 0 accepts, the
/// other CPUs serve) and fills `rep`'s completions and end-of-run values.
/// Returns the requests left in the queue.
template <class Server>
long serve_all(Server& s, sim::Engine& eng, const std::vector<Request>& reqs,
               SrvReport& rep) {
  for (long k = 0; k < kSessions; ++k) s.sessions.put(k, kInitialBalance);
  for (long sl = 0; sl < kCacheSlots; ++sl) s.cache.put(sl, sl);
  auto handle = [&](long idx) { return handle_request(reqs[static_cast<std::size_t>(idx)], s); };
  // Completion bookkeeping lives OUTSIDE the transactional state: it is
  // only ever touched post-commit, so it adds no read/write-set footprint
  // and no conflicts, and the loop needs no poison pill.
  auto finish = [&](long idx) {
    const std::uint64_t arrival = reqs[static_cast<std::size_t>(idx)].arrival;
    const std::uint64_t t = eng.now();
    rep.sojourn.record(t > arrival ? t - arrival : 0);
    ++rep.completed;
    if (t > rep.last_commit) rep.last_commit = t;
  };
  eng.spawn([&] {  // CPU 0: the accept loop
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (eng.now() < reqs[i].arrival) eng.advance_to(reqs[i].arrival);
      s.enqueue(static_cast<long>(i));
    }
  });
  for (int cpu = 1; cpu < eng.config().num_cpus; ++cpu) {
    eng.spawn([&] {
      std::uint64_t backoff = kBackoffMin;
      while (rep.completed < reqs.size()) {
        if (s.serve(handle, finish)) {
          backoff = kBackoffMin;
        } else {
          (void)atomos::work(backoff);  // outside a transaction
          backoff = std::min(backoff * 2, kBackoffMax);
        }
      }
    });
  }
  eng.run();
  // The engine has halted and every transaction has committed, so the
  // committed values are the truth.
  rep.hits = committed(s.hits);
  rep.misses = committed(s.misses);
  rep.revenue = committed(s.revenue);
  for (long k = 0; k < kSessions; ++k) rep.session_sum += s.sessions.get(k).value_or(0);
  return s.queue.size();
}

void audit(const SrvConfig& cfg, const SrvReport& rep, long stranded) {
  std::ostringstream err;
  if (static_cast<long>(rep.completed) != cfg.requests)
    err << "completed " << rep.completed << " != " << cfg.requests << "; ";
  if (rep.hits + rep.misses != rep.lookups)
    err << "hits " << rep.hits << " + misses " << rep.misses << " != lookups "
        << rep.lookups << "; ";
  if (rep.revenue != rep.expected_revenue)
    err << "revenue " << rep.revenue << " != " << rep.expected_revenue << "; ";
  const long expect_sum = kSessions * kInitialBalance + rep.expected_revenue;
  if (rep.session_sum != expect_sum)
    err << "session sum " << rep.session_sum << " != " << expect_sum << "; ";
  if (stranded != 0) err << stranded << " requests stranded; ";
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
  const std::vector<Request> reqs = make_schedule(cfg, cpus - 1, salt);
  rep = SrvReport{};
  for (const Request& r : reqs) {
    if (r.kind == 0) ++rep.lookups;
    if (r.kind == 1) ++rep.updates, rep.expected_revenue += r.delta;
    if (r.kind == 2) ++rep.transfers;
  }

  sim::Config c;
  c.mode = f == Flavor::kLock ? sim::Mode::kLock : sim::Mode::kTcc;
  c.num_cpus = cpus;
  sim::Engine eng(c);
  atomos::Runtime rt(eng);
  long stranded = 0;
  if (f == Flavor::kLock) {
    LockServer s;
    stranded = serve_all(s, eng, reqs, rep);
  } else if (f == Flavor::kFlatTm) {
    FlatServer s;
    stranded = serve_all(s, eng, reqs, rep);
  } else {
    SemanticServer s(f == Flavor::kChoppedTm);
    stranded = serve_all(s, eng, reqs, rep);
  }
  rep.chop_pieces = rt.chop_stats().pieces;
  rep.chop_dep_breaks = rt.chop_stats().dep_breaks;
  if (stats_out != nullptr) harness::collect_stats(eng, *stats_out);
  audit(cfg, rep, stranded);
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
