#include "mc/litmus.h"

#include <functional>
#include <memory>
#include <utility>

#include "core/txmap.h"
#include "core/txqueue.h"
#include "core/txsortedmap.h"
#include "jstd/hashmap.h"
#include "jstd/linkedqueue.h"
#include "jstd/treemap.h"
#include "mc/mutants.h"
#include "mc/recorded.h"
#include "tm/chop.h"
#include "tm/shared.h"

namespace mc {
namespace {

/// Registers the oracle's lifecycle handlers on the CURRENT top-level
/// transaction, FIRST: the commit flush stamps before any collection
/// handler applies its buffers (and needs no token — read-only transactions
/// stay token-free), while the abort flush, running LAST in the reverse
/// abort order, stamps after every compensation has run.  Chop piece bodies
/// call this directly (Chop::run owns the atomically() wrapper).
void mc_attach(Oracle& o) {
  auto& rt = atomos::Runtime::current();
  const atomos::TxnId id = rt.self_id();
  o.attempt_begin(id.cpu, id);
  Oracle* op = &o;
  const int cpu = id.cpu;
  rt.on_top_commit(op, [op, cpu] { op->flush_commit(cpu); },
                   [op, cpu] { op->flush_abort(cpu); }, [] { return false; });
}

/// Runs `body` as one top-level transaction under the oracle.
template <class F>
void mc_txn(Oracle& o, F&& body) {
  auto& rt = atomos::Runtime::current();
  rt.atomically([&] {
    mc_attach(o);
    body();
  });
}

std::vector<std::pair<long, long>> map_entries(const jstd::Map<long, long>& m) {
  std::vector<std::pair<long, long>> out;
  for (auto it = m.iterator(); it->has_next();) out.push_back(it->next());
  return out;
}

std::vector<long> drain_queue(jstd::Channel<long>& q) {
  std::vector<long> out;
  while (auto v = q.poll()) out.push_back(*v);
  return out;
}

/// Owns every per-run object a program needs, so body/finish lambdas have
/// stable addresses for the whole run.
struct World {
  std::unique_ptr<tcc::TransactionalMap<long, long>> map;
  std::unique_ptr<tcc::TransactionalSortedMap<long, long>> sorted;
  std::unique_ptr<tcc::TransactionalQueue<long>> queue;
  std::optional<RecordedMap> rmap;
  std::optional<RecordedSortedMap> rsorted;
  std::optional<RecordedQueue> rqueue;
  std::optional<atomos::Shared<long>> cell;

  std::vector<std::function<void()>> bodies;
  std::function<void()> finish;
};

using Builder = std::function<std::unique_ptr<World>(Oracle&)>;

struct Entry {
  Program prog;
  Builder build;
};

std::unique_ptr<World> with_map(Oracle& o,
                                std::unique_ptr<tcc::TransactionalMap<long, long>> map,
                                std::vector<std::pair<long, long>> initial,
                                bool open_eager = false) {
  auto w = std::make_unique<World>();
  w->map = std::move(map);
  for (const auto& [k, v] : initial) w->map->put(k, v);  // pre-run: passthrough
  o.register_map(w->map.get(), "map", std::move(initial));
  w->rmap.emplace(&o, w->map.get(), open_eager);
  World* wp = w.get();
  Oracle* op = &o;
  w->finish = [op, wp] { op->set_final_map(wp->map.get(), map_entries(*wp->map)); };
  return w;
}

std::unique_ptr<World> with_queue(Oracle& o,
                                  std::unique_ptr<tcc::TransactionalQueue<long>> queue,
                                  std::vector<long> initial) {
  auto w = std::make_unique<World>();
  w->queue = std::move(queue);
  for (const long v : initial) w->queue->put(v);
  o.register_queue(w->queue.get(), "queue", std::move(initial));
  w->rqueue.emplace(&o, w->queue.get());
  World* wp = w.get();
  Oracle* op = &o;
  w->finish = [op, wp] { op->set_final_queue(wp->queue.get(), drain_queue(*wp->queue)); };
  return w;
}

std::unique_ptr<tcc::TransactionalMap<long, long>> plain_map() {
  return std::make_unique<tcc::TransactionalMap<long, long>>(
      std::make_unique<jstd::HashMap<long, long>>(16));
}

std::unique_ptr<tcc::TransactionalQueue<long>> plain_queue() {
  return std::make_unique<tcc::TransactionalQueue<long>>(
      std::make_unique<jstd::LinkedQueue<long>>());
}

// ---- clean corpus ----

std::unique_ptr<World> build_map_rmw(Oracle& o) {
  auto w = with_map(o, plain_map(), {{1, 10}});
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          const long v = wp->rmap->get(1).value_or(0);
          if (atomos::work(300)) return;
          wp->rmap->put(1, v + 1);
        });
      },
      [op, wp] {
        mc_txn(*op, [&] {
          const long v = wp->rmap->get(1).value_or(0);
          if (atomos::work(300)) return;
          wp->rmap->put(1, v + 2);
        });
      },
  };
  return w;
}

std::unique_ptr<World> build_map_blind(Oracle& o) {
  auto w = with_map(o, plain_map(), {{1, 10}});
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          wp->rmap->put_blind(1, 100);
          if (atomos::work(200)) return;
          (void)wp->rmap->get(2);
        });
      },
      [op, wp] {
        mc_txn(*op, [&] {
          wp->rmap->put_blind(1, 200);
          if (atomos::work(100)) return;
          (void)wp->rmap->get(3);
        });
      },
  };
  return w;
}

std::unique_ptr<World> build_map_size_empty(Oracle& o) {
  auto w = with_map(o, plain_map(), {{1, 10}, {2, 20}});
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          const long s = wp->rmap->size();
          if (atomos::work(250)) return;
          if (s < 3) wp->rmap->put(100, s);
        });
      },
      [op, wp] {
        mc_txn(*op, [&] {
          const bool e = wp->rmap->is_empty();
          if (atomos::work(120)) return;
          if (!e) wp->rmap->put(200, 5);
        });
      },
  };
  return w;
}

std::unique_ptr<World> build_sorted_endpoints(Oracle& o) {
  auto w = std::make_unique<World>();
  w->sorted = std::make_unique<tcc::TransactionalSortedMap<long, long>>(
      std::make_unique<jstd::TreeMap<long, long>>());
  w->sorted->put(5, 50);
  w->sorted->put(9, 90);
  o.register_map(w->sorted.get(), "sorted", {{5, 50}, {9, 90}}, /*sorted=*/true);
  w->rsorted.emplace(&o, w->sorted.get());
  World* wp = w.get();
  Oracle* op = &o;
  w->finish = [op, wp] { op->set_final_map(wp->sorted.get(), map_entries(*wp->sorted)); };
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          const long f = wp->rsorted->first_key().value_or(-1);
          if (atomos::work(250)) return;
          wp->rsorted->put(f + 100, 1);  // 105 or 101: distinct from corpus keys
        });
      },
      [op, wp] {
        mc_txn(*op, [&] {
          (void)wp->rsorted->last_key();
          if (atomos::work(80)) return;
          wp->rsorted->put(1, 11);  // new minimum: violates first-key observers
        });
      },
  };
  return w;
}

std::unique_ptr<World> build_queue_pc(Oracle& o) {
  auto w = with_queue(o, plain_queue(), {101});
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          wp->rqueue->put(102);
          if (atomos::work(150)) return;
        });
        mc_txn(*op, [&] { wp->rqueue->put(103); });
      },
      [op, wp] {
        mc_txn(*op, [&] {
          (void)wp->rqueue->poll();
          if (atomos::work(120)) return;
          (void)wp->rqueue->poll();
        });
      },
  };
  return w;
}

std::unique_ptr<World> build_queue_worklist(Oracle& o) {
  auto w = with_queue(o, plain_queue(), {201, 202});
  World* wp = w.get();
  Oracle* op = &o;
  auto worker = [op, wp] {
    mc_txn(*op, [&] {
      const auto v = wp->rqueue->take();
      if (atomos::work(140)) return;
      if (v.has_value()) wp->rqueue->put(*v + 10);  // 211/212: globally unique
    });
  };
  w->bodies = {worker, worker};
  return w;
}

/// Grafts a queue onto a map world.
void add_queue(World& w, Oracle& o,
               std::unique_ptr<tcc::TransactionalQueue<long>> queue,
               std::vector<long> initial) {
  w.queue = std::move(queue);
  for (const long v : initial) w.queue->put(v);
  o.register_queue(w.queue.get(), "queue", std::move(initial));
  w.rqueue.emplace(&o, w.queue.get());
  World* wp = &w;
  Oracle* op = &o;
  auto base_finish = std::move(w.finish);
  w.finish = [op, wp, base_finish] {
    base_finish();
    op->set_final_queue(wp->queue.get(), drain_queue(*wp->queue));
  };
}

std::unique_ptr<World> build_compound(Oracle& o) {
  auto w = with_map(o, plain_map(), {});
  add_queue(*w, o, plain_queue(), {301});
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          const auto v = wp->rqueue->poll();
          if (atomos::work(100)) return;
          if (v.has_value()) wp->rmap->put(*v, 1);
        });
      },
      [op, wp] {
        mc_txn(*op, [&] {
          wp->rmap->put(302, 2);
          if (atomos::work(90)) return;
          wp->rqueue->put(303);
        });
      },
  };
  return w;
}

std::unique_ptr<World> build_map_conflict(Oracle& o) {
  auto w = with_map(o, plain_map(), {{1, 10}});
  w->cell.emplace(0L, sim::kDataCell);
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          (void)wp->rmap->get(1);
          (void)wp->cell->get();  // memory-level read: cpu1's commit dooms us
          if (atomos::work(280)) return;
          wp->rmap->put(2, 22);
          wp->cell->set(1);
        });
      },
      [op, wp] {
        mc_txn(*op, [&] {
          if (atomos::work(60)) return;
          wp->cell->set(2);
          wp->rmap->put(1, 11);
        });
      },
  };
  return w;
}

std::unique_ptr<World> build_map_read_cell(Oracle& o) {
  // CPU 0's only map operation is a read, so the map's commit handler
  // declines the commit token; its plain-cell write takes the token anyway,
  // and the handler must still run and release the key lock.
  auto w = with_map(o, plain_map(), {{1, 10}});
  w->cell.emplace(0L, sim::kDataCell);
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          const long v = wp->rmap->get(1).value_or(0);
          if (atomos::work(200)) return;
          wp->cell->set(v);
        });
      },
      [op, wp] {
        mc_txn(*op, [&] {
          if (atomos::work(60)) return;
          wp->rmap->put(1, 11);
        });
      },
  };
  return w;
}

// ---- mutant corpus ----

std::unique_ptr<World> build_mut_lost_lock(Oracle& o) {
  auto w = with_map(o, std::make_unique<LockDroppingMap>(
                           std::make_unique<jstd::HashMap<long, long>>(16)),
                    {{1, 10}});
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          const long v = wp->rmap->get(1).value_or(0);
          if (atomos::work(400)) return;
          wp->rmap->put(2, v * 100);
        });
      },
      [op, wp] {
        mc_txn(*op, [&] {
          if (atomos::work(50)) return;
          wp->rmap->put(1, 11);
        });
      },
  };
  return w;
}

std::unique_ptr<World> build_mut_open_leak(Oracle& o) {
  auto w = with_map(o, std::make_unique<EagerOpenMap>(
                           std::make_unique<jstd::HashMap<long, long>>(16)),
                    {}, /*open_eager=*/true);
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] { mc_txn(*op, [&] { (void)wp->rmap->get(50); }); },
      [op, wp] {
        mc_txn(*op, [&] {
          wp->rmap->put(50, 42);  // applied eagerly by the mutant
          if (atomos::work(400)) return;
        });
      },
  };
  return w;
}

std::unique_ptr<World> build_mut_lost_update(Oracle& o) {
  auto w = with_map(o, std::make_unique<NoLockPutMap>(
                           std::make_unique<jstd::HashMap<long, long>>(16)),
                    {{1, 10}});
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          wp->rmap->put(1, 100);
          if (atomos::work(300)) return;
        });
      },
      [op, wp] {
        mc_txn(*op, [&] {
          wp->rmap->put(1, 200);
          if (atomos::work(120)) return;
        });
      },
  };
  return w;
}

std::unique_ptr<World> build_mut_lossy_queue(Oracle& o) {
  auto w = with_queue(o, std::make_unique<LossyQueue>(
                             std::make_unique<jstd::LinkedQueue<long>>()),
                      {401, 402});
  w->cell.emplace(0L, sim::kDataCell);
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          (void)wp->rqueue->poll();
          (void)wp->cell->get();  // cpu1's committed write aborts us mid-flight
          if (atomos::work(250)) return;
        });
      },
      [op, wp] {
        mc_txn(*op, [&] {
          if (atomos::work(60)) return;
          wp->cell->set(2);
        });
      },
  };
  return w;
}

// ---- srv programs: the server handler-loop shape (see src/srv) ----
// One transaction = take a request from the work queue, then a session RMW.

std::unique_ptr<World> build_srv_handler(Oracle& o) {
  // Two workers drain a two-request queue and apply each request's delta to
  // the SAME session: take (no emptiness observation) + keyed RMW.  Every
  // interleaving must serialize — the session ends at 10 + 501 + 502 with
  // both requests consumed exactly once.
  auto w = with_map(o, plain_map(), {{1, 10}});
  add_queue(*w, o, plain_queue(), {501, 502});
  World* wp = w.get();
  Oracle* op = &o;
  auto worker = [op, wp] {
    mc_txn(*op, [&] {
      const auto req = wp->rqueue->take();
      if (atomos::work(140)) return;
      if (req.has_value()) {
        const long bal = wp->rmap->get(1).value_or(0);
        wp->rmap->put(1, bal + *req);
      }
    });
  };
  w->bodies = {worker, worker};
  return w;
}

std::unique_ptr<World> build_chop_transfer(Oracle& o) {
  // The srv handler shape as a tm::chopped() transaction: the take and the
  // session deposit commit as separate ordered pieces.  Within the take
  // piece TransactionalQueue's eager open-nested remove must put the element
  // back if the piece aborts (try_dequeue abort put-back), so in EVERY
  // schedule the two requests are consumed exactly once and the FIFO bag is
  // conserved: the session ends at 10 + 501 + 502 with the queue drained.
  auto w = with_map(o, plain_map(), {{1, 10}});
  add_queue(*w, o, plain_queue(), {501, 502});
  World* wp = w.get();
  Oracle* op = &o;
  auto worker = [op, wp] {
    std::optional<long> req;
    atomos::chopped()
        .piece([&] {
                 mc_attach(*op);
                 req = wp->rqueue->take();
                 if (atomos::work(140)) return;
               },
               /*compensate=*/
               [&] {
                 if (req.has_value()) wp->rqueue->put(*req);
               })
        .piece([&] {
                 mc_attach(*op);
                 if (req.has_value()) {
                   const long bal = wp->rmap->get(1).value_or(0);
                   wp->rmap->put(1, bal + *req);
                 }
               },
               atomos::no_compensation)
        .run();
  };
  w->bodies = {worker, worker};
  return w;
}

std::unique_ptr<World> build_mut_chop_lossy_dequeue(Oracle& o) {
  // The chopped handler over a LossyQueue: a memory conflict (the cell)
  // aborts the take piece mid-flight, and the mutant's broken abort
  // compensation drops the eagerly-removed request instead of putting it
  // back — the retry dequeues the NEXT request and the first one vanishes,
  // which the oracle reports as a compensation inversion.
  auto w = with_map(o, plain_map(), {});
  add_queue(*w, o,
            std::make_unique<LossyQueue>(
                std::make_unique<jstd::LinkedQueue<long>>()),
            {601, 602});
  w->cell.emplace(0L, sim::kDataCell);
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        std::optional<long> req;
        atomos::chopped()
            .piece([&] {
                     mc_attach(*op);
                     req = wp->rqueue->poll();
                     (void)wp->cell->get();  // cpu1's commit aborts this piece
                     if (atomos::work(250)) return;
                   },
                   /*compensate=*/
                   [&] {
                     if (req.has_value()) wp->rqueue->put(*req);
                   })
            .piece([&] {
                     mc_attach(*op);
                     if (req.has_value()) wp->rmap->put(*req, 1);
                   },
                   atomos::no_compensation)
            .run();
      },
      [op, wp] {
        mc_txn(*op, [&] {
          if (atomos::work(60)) return;
          wp->cell->set(9);
        });
      },
  };
  return w;
}

std::unique_ptr<World> build_mut_srv_lost_update(Oracle& o) {
  // The same handler shape over a map whose put skips the key read-lock:
  // two concurrent handlers read the same balance and one deposit is lost.
  auto w = with_map(o, std::make_unique<NoLockPutMap>(
                           std::make_unique<jstd::HashMap<long, long>>(16)),
                    {{1, 10}});
  add_queue(*w, o, plain_queue(), {501, 502});
  World* wp = w.get();
  Oracle* op = &o;
  auto worker = [op, wp](std::uint64_t think) {
    return [op, wp, think] {
      mc_txn(*op, [&] {
        const auto req = wp->rqueue->take();
        // Deposit first, then post-process: the un-committed RMW is exposed
        // for the whole think time, so handlers overlap on the session.
        if (req.has_value()) wp->rmap->put(1, 1000 + *req);
        if (atomos::work(think)) return;
      });
    };
  };
  w->bodies = {worker(300), worker(120)};
  return w;
}

std::unique_ptr<World> build_mut_srv_lossy_handler(Oracle& o) {
  // A handler aborted mid-flight (memory conflict on the cell) must hand
  // its request back to the queue; the LossyQueue's broken compensation
  // drops it instead, violating request conservation.
  auto w = with_map(o, plain_map(), {});
  add_queue(*w, o,
            std::make_unique<LossyQueue>(
                std::make_unique<jstd::LinkedQueue<long>>()),
            {601, 602});
  w->cell.emplace(0L, sim::kDataCell);
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          const auto req = wp->rqueue->poll();
          (void)wp->cell->get();  // cpu1's committed write aborts us mid-handler
          if (atomos::work(250)) return;
          if (req.has_value()) wp->rmap->put(*req, 1);
        });
      },
      [op, wp] {
        mc_txn(*op, [&] {
          if (atomos::work(60)) return;
          wp->cell->set(9);
        });
      },
  };
  return w;
}

std::unique_ptr<World> build_mut_double_release(Oracle& o) {
  auto w = with_map(o, std::make_unique<DoubleReleaseMap>(
                           std::make_unique<jstd::HashMap<long, long>>(16)),
                    {{1, 10}});
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          (void)wp->rmap->get(1);
          wp->rmap->put(1, 11);
        });
      },
      [op, wp] { mc_txn(*op, [&] { wp->rmap->put(2, 22); }); },
  };
  return w;
}

std::unique_ptr<World> build_mut_lock_leak(Oracle& o) {
  auto w = with_map(o, std::make_unique<LeakyAbortMap>(
                           std::make_unique<jstd::HashMap<long, long>>(16)),
                    {{1, 10}});
  w->cell.emplace(0L, sim::kDataCell);
  World* wp = w.get();
  Oracle* op = &o;
  w->bodies = {
      [op, wp] {
        mc_txn(*op, [&] {
          (void)wp->cell->get();
          (void)wp->rmap->get(1);
          if (atomos::work(300)) return;
        });
      },
      [op, wp] {
        mc_txn(*op, [&] {
          if (atomos::work(50)) return;
          wp->cell->set(5);
        });
      },
  };
  return w;
}

const std::vector<Entry>& registry() {
  static const std::vector<Entry> entries = [] {
    std::vector<Entry> e;
    auto clean = [&](const char* name, const char* desc, Builder b) {
      e.push_back(Entry{Program{name, desc, 2, false, std::nullopt}, std::move(b)});
    };
    auto mutant = [&](const char* name, const char* desc, Anomaly a, Builder b) {
      e.push_back(Entry{Program{name, desc, 2, true, a}, std::move(b)});
    };
    clean("map_rmw", "two read-modify-write transactions on one key", build_map_rmw);
    clean("map_blind", "blind puts of the same key commute", build_map_blind);
    clean("map_size_empty", "size/isEmpty observers vs a concurrent writer",
          build_map_size_empty);
    clean("sorted_endpoints", "firstKey/lastKey observers vs endpoint inserts",
          build_sorted_endpoints);
    clean("queue_pc", "producer/consumer with emptiness observations", build_queue_pc);
    clean("queue_worklist", "two take-then-put workers (Table 7 commute)",
          build_queue_worklist);
    clean("compound", "one transaction spanning a map and a queue", build_compound);
    clean("map_conflict", "memory conflict forces an abort + compensation",
          build_map_conflict);
    clean("srv_handler", "server handlers: take a request, session RMW",
          build_srv_handler);
    clean("chop_transfer", "chopped handler: take piece + deposit piece",
          build_chop_transfer);
    clean("map_read_cell", "map read plus a plain-cell write vs a writer of the key",
          build_map_read_cell);
    mutant("mut_lost_lock", "get() without the key lock",
           Anomaly::kLostSemanticLock, build_mut_lost_lock);
    mutant("mut_open_leak", "open-nested eager put leaks pre-commit state",
           Anomaly::kNonCommutingOpen, build_mut_open_leak);
    mutant("mut_lost_update", "RMW put without the key read-lock",
           Anomaly::kLostUpdate, build_mut_lost_update);
    mutant("mut_lossy_queue", "abort compensation drops polled elements",
           Anomaly::kCompensationInversion, build_mut_lossy_queue);
    mutant("mut_double_release", "commit handler releases key locks twice",
           Anomaly::kDoubleRelease, build_mut_double_release);
    mutant("mut_lock_leak", "abort handler forgets to release locks",
           Anomaly::kLockLeak, build_mut_lock_leak);
    mutant("mut_srv_lost_update", "handler session RMW without the key lock",
           Anomaly::kLostUpdate, build_mut_srv_lost_update);
    mutant("mut_srv_lossy_handler", "aborted handler loses its taken request",
           Anomaly::kCompensationInversion, build_mut_srv_lossy_handler);
    mutant("mut_chop_lossy_dequeue", "aborted chop take piece drops its request",
           Anomaly::kCompensationInversion, build_mut_chop_lossy_dequeue);
    return e;
  }();
  return entries;
}

}  // namespace

const std::vector<Program>& programs() {
  static const std::vector<Program> progs = [] {
    std::vector<Program> p;
    for (const Entry& e : registry()) p.push_back(e.prog);
    return p;
  }();
  return progs;
}

const Program* find_program(const std::string& name) {
  for (const Program& p : programs()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

RunResult run_program(const Program& prog, const Schedule& forced) {
  const Entry* entry = nullptr;
  for (const Entry& e : registry()) {
    if (e.prog.name == prog.name) entry = &e;
  }
  RunResult res;
  if (entry == nullptr) {
    res.violations.push_back(
        Violation{Anomaly::kNotSerializable, "unknown program: " + prog.name});
    return res;
  }

  sim::Config cfg;
  cfg.num_cpus = entry->prog.num_cpus;
  cfg.mode = sim::Mode::kTcc;
  sim::Engine eng(cfg);  // resets the va arenas: runs are bit-reproducible
  atomos::Runtime rt(eng);
  Oracle oracle;
  Controller ctl(eng, &oracle, forced);
  eng.set_scheduler_hook(&ctl);
  rt.set_mc_observer(&ctl);

  std::unique_ptr<World> world = entry->build(oracle);
  for (auto& body : world->bodies) eng.spawn(body);
  eng.run();
  if (world->finish) world->finish();

  res.violations = oracle.check();
  res.executed = ctl.executed();
  res.diverged = ctl.diverged();
  res.capture = ctl.capture();
  return res;
}

}  // namespace mc
