// srv — an event-driven request-serving workload (open-system arrivals).
//
// The paper's benchmarks (TestMap, TestCompound, SPECjbb2000) are all
// CLOSED systems: a fixed set of worker threads loops as fast as it can, so
// the figures can only report throughput.  Real servers are OPEN systems —
// requests arrive on their own schedule whether or not the server keeps up —
// and there the cost of coarse synchronization shows up first not as lower
// throughput but as queueing delay: sojourn time (arrival -> completion)
// explodes at the load where the serialized section saturates.  This
// workload measures exactly that.
//
// Shape of a run on an N-CPU server:
//
//   CPU 0 (the "accept" CPU) replays a precomputed Poisson arrival
//   schedule in simulated cycles, enqueueing typed requests into a shared
//   work queue.  CPUs 1..N-1 run worker loops: dequeue a request, execute
//   its handler over shared state — a session table (key -> balance), a
//   direct-mapped cache (slot -> tag) and statistics counters — then pick
//   up the next one.  The request mix is read-mostly: 70% session lookups
//   (half against a small hot key set, cache hit/miss decides the
//   simulated service cost), 20% single-session updates, 10% cross-session
//   transfers (multi-key read-modify-write).
//
// The same schedule and handlers run under three synchronization flavors:
//
//   kLock       — a mutex-guarded plain queue plus ONE coarse state mutex
//                 held across each whole handler (the classic "giant lock
//                 around the business logic" server);
//   kFlatTm     — each handler is one flat closed-nested transaction over
//                 plain jstd collections; the queue head and the statistics
//                 counters live in every transaction's read/write set, so
//                 commits violate each other constantly;
//   kSemanticTm — the same transaction shape, but through the paper's
//                 semantic collections: TransactionalQueue::take() (no
//                 emptiness observation, Table 7), TransactionalMap
//                 sessions/cache, open-nested CompensatedCounter stats.
//
// Every flavor replays the BIT-IDENTICAL arrival schedule for a given
// (load, cpu count, seed): the schedule is derived from an integer LCG and
// the committed exponential quantile table in exp_table.h — no libm — so
// fig5_srv.csv is byte-identical across hosts and across `--jobs N`.
//
// Reported per sweep point (RunResult::extras): offered load, offered and
// completed requests per million cycles, and p50/p99/p999 sojourn time from
// a mergeable log-scale histogram (harness/latency.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/latency.h"
#include "harness/speedup.h"

namespace srv {

enum class Flavor {
  kLock,        ///< coarse lock-based handler loop
  kFlatTm,      ///< flat closed-nested transactions over plain collections
  kSemanticTm,  ///< open-nested / semantic transactional collections
  kChoppedTm,   ///< semantic collections + tm::chopped() handler pieces:
                ///< dequeue and handler body commit as separate ordered
                ///< transactions, shrinking the conflict window per piece
};

const char* flavor_name(Flavor f);

/// One typed request, fully determined by the schedule (handlers draw no
/// randomness of their own, so retries replay identically).
struct Request {
  std::uint64_t arrival = 0;  ///< simulated cycle the request enters the system
  int kind = 0;               ///< 0 = lookup, 1 = update, 2 = transfer
  long key = 0;
  long key2 = 0;  ///< transfer destination (distinct from key)
  long delta = 0; ///< update/transfer amount
};

struct SrvConfig {
  int requests = 1200;
  double load = 0.6;  ///< offered load: arrival rate as a fraction of the
                      ///< workers' nominal aggregate service rate
};

// The shape of the request mix and of the shared state, fixed for every run.
inline constexpr std::uint64_t kSeed = 90210;  ///< schedule seed, mixed with the salt
inline constexpr long kSessions = 256;   ///< session table keys, prepopulated to kInitialBalance
inline constexpr long kCacheSlots = 64;  ///< direct-mapped cache size (slot = key % slots)
inline constexpr long kHotKeys = 32;     ///< half of all lookups target keys [0, kHotKeys)
/// Calibrated mean service demand per request in simulated cycles; the
/// arrival rate for `load` rho on W workers is rho * W / kServiceCycles.
inline constexpr std::uint64_t kServiceCycles = 2000;
inline constexpr long kInitialBalance = 1000;

/// What a finished run reports (beyond the engine's own stats).
struct SrvReport {
  harness::LatencyHistogram sojourn;  ///< per-request arrival -> commit cycles
  std::uint64_t completed = 0;
  std::uint64_t last_commit = 0;  ///< cycle of the final request completion
  long hits = 0;
  long misses = 0;
  long revenue = 0;
  long session_sum = 0;
  // Expected values derived from the schedule (consistency checking).
  long lookups = 0;
  long updates = 0;
  long transfers = 0;
  long expected_revenue = 0;
  // Chopping attribution (kChoppedTm only; zero otherwise): committed
  // pieces and forward-dependency break events from Runtime::chop_stats().
  std::uint64_t chop_pieces = 0;
  std::uint64_t chop_dep_breaks = 0;
};

/// The deterministic request schedule for one sweep point.  Depends on
/// (cfg, workers, salt) only — NOT on the flavor — so all three series face
/// the identical arrival process and request mix.
std::vector<Request> make_schedule(const SrvConfig& cfg, int workers,
                                   std::uint64_t salt);

/// Runs the full server simulation for one flavor on `cpus` virtual CPUs
/// (CPU 0 injects, CPUs 1..cpus-1 serve; cpus >= 2).  Fills `rep` and
/// throws std::runtime_error if the end-of-run consistency audit fails
/// (conservation of session balances, exact-once completion, counter
/// reconciliation, drained queue).
void run_server(Flavor f, const SrvConfig& cfg, int cpus, std::uint64_t salt,
                SrvReport& rep, harness::RunResult* stats_out = nullptr);

/// A harness::Series named "<flavor> load=<rho>" for the fig5 sweep; the
/// extras columns are (load, offered_per_mcyc, tput_per_mcyc, p50, p99,
/// p999).  Shared by bench/fig5_srv.cpp and tests/srv.
harness::Series series(Flavor f, double load, int requests);

}  // namespace srv
