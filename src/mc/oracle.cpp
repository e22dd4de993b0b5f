#include "mc/oracle.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace mc {
namespace {

std::string id_str(const atomos::TxnId& id) {
  return "txn(cpu=" + std::to_string(id.cpu) + ", inc=" + std::to_string(id.incarnation) + ")";
}

bool is_map_mutation(const Op& op) {
  return !op.cancelled && (op.kind == Op::Kind::kPut || op.kind == Op::Kind::kRemove);
}

bool is_map_op(const Op& op) {
  switch (op.kind) {
    case Op::Kind::kGet:
    case Op::Kind::kPut:
    case Op::Kind::kRemove:
    case Op::Kind::kSize:
    case Op::Kind::kIsEmpty:
    case Op::Kind::kFirstKey:
    case Op::Kind::kLastKey:
      return !op.cancelled;
    default:
      return false;
  }
}

const char* op_name(Op::Kind k) {
  switch (k) {
    case Op::Kind::kGet: return "get";
    case Op::Kind::kPut: return "put";
    case Op::Kind::kRemove: return "remove";
    case Op::Kind::kSize: return "size";
    case Op::Kind::kIsEmpty: return "isEmpty";
    case Op::Kind::kFirstKey: return "firstKey";
    case Op::Kind::kLastKey: return "lastKey";
    case Op::Kind::kQPut: return "queue.put";
    case Op::Kind::kQPollHit: return "queue.poll";
    case Op::Kind::kQPollMiss: return "queue.poll(empty)";
    case Op::Kind::kQTakeHit: return "queue.take";
    case Op::Kind::kQPeekHit: return "queue.peek";
    case Op::Kind::kQPeekMiss: return "queue.peek(empty)";
  }
  return "?";
}

using MapState = std::map<long, long>;  // ordered: first/last keys are cheap

std::string obs_str(bool present, long v) {
  return present ? std::to_string(v) : std::string("<absent>");
}

/// Validates one map op against `m`, applying mutations.  Returns a
/// non-empty description on mismatch.
std::string validate_map_op(MapState& m, const Op& op) {
  auto expect = [&](bool present, long value, bool check_value) -> std::string {
    const bool ok = (op.observed_present == present) &&
                    (!check_value || !present || op.observed == value);
    if (ok) return {};
    return std::string(op_name(op.kind)) + "(" + std::to_string(op.key) +
           ") observed " + obs_str(op.observed_present, op.observed) +
           " but the serialized history has " + obs_str(present, value);
  };
  switch (op.kind) {
    case Op::Kind::kGet: {
      auto it = m.find(op.key);
      return expect(it != m.end(), it != m.end() ? it->second : 0, true);
    }
    case Op::Kind::kPut: {
      std::string err;
      if (!op.blind) {
        auto it = m.find(op.key);
        err = expect(it != m.end(), it != m.end() ? it->second : 0, true);
      }
      m[op.key] = op.value;
      return err;
    }
    case Op::Kind::kRemove: {
      std::string err;
      auto it = m.find(op.key);
      if (!op.blind) err = expect(it != m.end(), it != m.end() ? it->second : 0, true);
      if (it != m.end()) m.erase(it);
      return err;
    }
    case Op::Kind::kSize:
      if (static_cast<long>(m.size()) != op.observed) {
        return "size() observed " + std::to_string(op.observed) +
               " but the serialized history has " + std::to_string(m.size());
      }
      return {};
    case Op::Kind::kIsEmpty:
      if ((op.observed != 0) != m.empty()) {
        return std::string("isEmpty() observed ") + (op.observed != 0 ? "true" : "false") +
               " but the serialized history disagrees";
      }
      return {};
    case Op::Kind::kFirstKey: {
      const bool present = !m.empty();
      return expect(present, present ? m.begin()->first : 0, true);
    }
    case Op::Kind::kLastKey: {
      const bool present = !m.empty();
      return expect(present, present ? m.rbegin()->first : 0, true);
    }
    default:
      return {};
  }
}

}  // namespace

const char* anomaly_name(Anomaly a) {
  switch (a) {
    case Anomaly::kNotSerializable: return "not-serializable";
    case Anomaly::kLostUpdate: return "lost-update";
    case Anomaly::kLostSemanticLock: return "lost-semantic-lock";
    case Anomaly::kNonCommutingOpen: return "non-commuting-open-nesting";
    case Anomaly::kCompensationInversion: return "compensation-inversion";
    case Anomaly::kFinalStateDivergence: return "final-state-divergence";
    case Anomaly::kLockLeak: return "lock-leak";
    case Anomaly::kDoubleRelease: return "double-release";
  }
  return "?";
}

// ---- registry / lifecycle ----

void Oracle::register_map(const void* table, std::string name,
                          std::vector<std::pair<long, long>> initial, bool sorted) {
  TableInfo info;
  info.kind = sorted ? TableInfo::Kind::kSortedMap : TableInfo::Kind::kMap;
  info.name = std::move(name);
  info.initial_map = std::move(initial);
  tables_[table] = std::move(info);
}

void Oracle::register_queue(const void* table, std::string name, std::vector<long> initial) {
  TableInfo info;
  info.kind = TableInfo::Kind::kQueue;
  info.name = std::move(name);
  info.initial_queue = std::move(initial);
  tables_[table] = std::move(info);
}

void Oracle::register_name(const void* table, std::string name) {
  names_[table] = std::move(name);
}

std::string Oracle::table_name(const void* table) const {
  auto it = tables_.find(table);
  if (it != tables_.end()) return it->second.name;
  auto jt = names_.find(table);
  if (jt != names_.end()) return jt->second;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%p", table);
  return buf;
}

void Oracle::attempt_begin(int cpu, const atomos::TxnId& id) {
  const auto c = static_cast<std::size_t>(cpu);
  if (pending_.size() <= c) pending_.resize(c + 1);
  if (last_commit_.size() <= c) last_commit_.resize(c + 1);
  last_commit_[c].reset();  // previous attempt's outcome is final now
  Pending& p = pending_[c];
  if (p.active) {  // defensive: an attempt that never flushed counts aborted
    p.rec.committed = false;
    p.rec.end_event = next_event();
    history_.push_back(std::move(p.rec));
  }
  p.active = true;
  p.rec = TxnRec{};
  p.rec.cpu = cpu;
  p.rec.id = id;
  p.rec.begin_event = next_event();
}

std::size_t Oracle::record(int cpu, Op op) {
  const auto c = static_cast<std::size_t>(cpu);
  if (pending_.size() <= c) pending_.resize(c + 1);
  Pending& p = pending_[c];
  if (!p.active) {  // op outside a tracked attempt: track it so check() sees it
    p.active = true;
    p.rec = TxnRec{};
    p.rec.cpu = cpu;
    p.rec.begin_event = next_event();
  }
  if (op.event == 0) op.event = next_event();
  p.rec.ops.push_back(op);
  return p.rec.ops.size() - 1;
}

std::uint64_t Oracle::stamp() { return next_event(); }

void Oracle::cancel(int cpu, std::size_t op_index) {
  const auto c = static_cast<std::size_t>(cpu);
  if (c >= pending_.size() || !pending_[c].active) return;
  auto& ops = pending_[c].rec.ops;
  if (op_index < ops.size()) ops[op_index].cancelled = true;
}

void Oracle::flush_commit(int cpu) {
  const auto c = static_cast<std::size_t>(cpu);
  if (c >= pending_.size() || !pending_[c].active) return;
  if (last_commit_.size() <= c) last_commit_.resize(c + 1);
  Pending& p = pending_[c];
  p.rec.committed = true;
  p.rec.end_event = next_event();
  history_.push_back(std::move(p.rec));
  last_commit_[c] = history_.size() - 1;
  p.active = false;
  p.rec = TxnRec{};
}

void Oracle::flush_abort(int cpu) {
  const auto c = static_cast<std::size_t>(cpu);
  if (c < pending_.size() && pending_[c].active) {
    Pending& p = pending_[c];
    p.rec.committed = false;
    p.rec.end_event = next_event();
    history_.push_back(std::move(p.rec));
    p.active = false;
    p.rec = TxnRec{};
    return;
  }
  // The oracle's commit flush already ran, then a later commit handler
  // escalated into an abort: demote the rec in place.
  if (c < last_commit_.size() && last_commit_[c].has_value()) {
    TxnRec& rec = history_[*last_commit_[c]];
    rec.committed = false;
    rec.end_event = next_event();
    last_commit_[c].reset();
  }
}

// ---- lock ledger ----

void Oracle::on_lock_event(const atomos::SemEvent& e) {
  const std::optional<atomos::LockLedger::Finding> f = locks_.apply(e);
  if (!f) return;
  if (f->kind == atomos::LockLedger::Finding::Kind::kLeak) {
    eager_violations_.push_back(Violation{
        Anomaly::kLockLeak,
        id_str(f->owner) + " finished still holding " + std::to_string(f->locks) +
            " semantic lock(s), e.g. in " + table_name(f->set) + " [lock-leak]"});
  } else {
    eager_violations_.push_back(Violation{
        Anomaly::kDoubleRelease,
        id_str(f->owner) + " released a semantic lock it does not hold in " +
            table_name(f->set) + " while still live (double release)"});
  }
}

void Oracle::set_final_map(const void* table, std::vector<std::pair<long, long>> entries) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return;
  it->second.final_map = std::move(entries);
  it->second.final_set = true;
}

void Oracle::set_final_queue(const void* table, std::vector<long> elems) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return;
  it->second.final_queue = std::move(elems);
  it->second.final_set = true;
}

// ---- checking: maps ----

namespace {

struct CommittedView {
  std::vector<const TxnRec*> recs;              // committed, in flush order
  std::vector<const TxnRec*> writers;           // subset with map mutations
  std::vector<std::uint64_t> writer_ends;       // flush stamps of writers
};

bool rec_mutates(const TxnRec& r, const void* table, long key, bool any_key) {
  for (const Op& op : r.ops) {
    if (!is_map_mutation(op) || op.table != table) continue;
    if (any_key || op.key == key) return true;
  }
  return false;
}

}  // namespace

void Oracle::check_maps(std::vector<Violation>& out) const {
  // Committed recs in flush order (history order restricted to committed).
  CommittedView view;
  for (const TxnRec& r : history_) {
    if (r.committed) view.recs.push_back(&r);
  }
  for (const TxnRec* r : view.recs) {
    bool mutates = false;
    for (const Op& op : r->ops) {
      if (is_map_mutation(op) && tables_.count(op.table) != 0) mutates = true;
    }
    if (mutates) {
      view.writers.push_back(r);
      view.writer_ends.push_back(r->end_event);
    }
  }

  // Model per map table; snapshots after each writer for the read-only pass.
  std::unordered_map<const void*, MapState> model;
  for (const auto& [table, info] : tables_) {
    if (info.kind == TableInfo::Kind::kQueue) continue;
    MapState m;
    for (const auto& [k, v] : info.initial_map) m[k] = v;
    model[table] = std::move(m);
  }
  std::vector<std::unordered_map<const void*, MapState>> snapshots;
  snapshots.push_back(model);

  auto classify_mismatch = [&](const TxnRec& rec, const Op& op,
                               std::uint64_t window_lo) -> Anomaly {
    // Dirty read: the stale observation matches an open-nested EAGER effect
    // of a transaction that does not serialize before this one.
    for (const TxnRec& r : history_) {
      if (&r == &rec) continue;
      const bool later_or_aborted = !r.committed || r.end_event > rec.end_event;
      if (!later_or_aborted) continue;
      for (const Op& q : r.ops) {
        if (!q.open_child || q.table != op.table || q.key != op.key) continue;
        if (q.kind == Op::Kind::kPut && op.observed_present && q.value == op.observed)
          return Anomaly::kNonCommutingOpen;
        if (q.kind == Op::Kind::kRemove && !op.observed_present)
          return Anomaly::kNonCommutingOpen;
      }
    }
    // A committed mutation that slipped into the observation window.
    const bool key_specific = op.kind == Op::Kind::kGet || op.kind == Op::Kind::kPut ||
                              op.kind == Op::Kind::kRemove;
    bool concurrent = false;
    for (const TxnRec* q : view.recs) {
      if (q == &rec) continue;
      if (q->end_event <= window_lo || q->end_event >= rec.end_event) continue;
      if (rec_mutates(*q, op.table, op.key, /*any_key=*/!key_specific)) {
        concurrent = true;
        break;
      }
    }
    if (concurrent) {
      const bool own_write = key_specific && rec_mutates(rec, op.table, op.key, false);
      return own_write ? Anomaly::kLostUpdate : Anomaly::kLostSemanticLock;
    }
    return Anomaly::kNotSerializable;
  };

  auto report = [&](const TxnRec& rec, const Op& op, Anomaly kind, const std::string& err) {
    out.push_back(Violation{
        kind, id_str(rec.id) + " on " + table_name(op.table) + ": " + err +
                  " [" + anomaly_name(kind) + "]"});
  };

  // Pass 1: writers replay strictly at their commit position.
  std::vector<const TxnRec*> read_only;
  for (const TxnRec* rec : view.recs) {
    bool is_writer = false;
    for (const Op& op : rec->ops) {
      if (is_map_mutation(op) && model.count(op.table) != 0) is_writer = true;
    }
    if (!is_writer) {
      for (const Op& op : rec->ops) {
        if (is_map_op(op) && model.count(op.table) != 0) {
          read_only.push_back(rec);
          break;
        }
      }
      continue;
    }
    for (const Op& op : rec->ops) {
      if (!is_map_op(op)) continue;
      auto mit = model.find(op.table);
      if (mit == model.end()) continue;
      const std::string err = validate_map_op(mit->second, op);
      if (!err.empty()) report(*rec, op, classify_mismatch(*rec, op, op.event), err);
    }
    snapshots.push_back(model);
  }

  // Pass 2: committed read-only transactions flush token-free and may
  // serialize at any writer boundary inside their observation window.
  for (const TxnRec* rec : read_only) {
    std::uint64_t first_obs = rec->end_event;
    for (const Op& op : rec->ops) {
      if (is_map_op(op) && op.event < first_obs) first_obs = op.event;
    }
    std::size_t g_lo = 0, g_hi = 0;
    for (std::size_t w = 0; w < view.writer_ends.size(); ++w) {
      if (view.writer_ends[w] < first_obs) g_lo = w + 1;
      if (view.writer_ends[w] < rec->end_event) g_hi = w + 1;
    }
    bool ok = false;
    for (std::size_t g = g_lo; g <= g_hi && !ok; ++g) {
      bool all = true;
      for (const Op& op : rec->ops) {
        if (!is_map_op(op)) continue;
        auto mit = snapshots[g].find(op.table);
        if (mit == snapshots[g].end()) continue;
        MapState scratch = mit->second;  // reads only; copy is cheap here
        if (!validate_map_op(scratch, op).empty()) {
          all = false;
          break;
        }
      }
      ok = all;
    }
    if (ok) continue;
    // Report against the latest candidate point, with the window in mind.
    for (const Op& op : rec->ops) {
      if (!is_map_op(op)) continue;
      auto mit = snapshots[g_hi].find(op.table);
      if (mit == snapshots[g_hi].end()) continue;
      MapState scratch = mit->second;
      const std::string err = validate_map_op(scratch, op);
      if (!err.empty()) {
        report(*rec, op, classify_mismatch(*rec, op, first_obs),
               err + " (no single serialization point in its window works)");
        break;
      }
    }
  }

  // Final-state conservation per map table.
  for (const auto& [table, info] : tables_) {
    if (info.kind == TableInfo::Kind::kQueue || !info.final_set) continue;
    const MapState& m = model[table];
    MapState actual;
    for (const auto& [k, v] : info.final_map) actual[k] = v;
    if (m == actual) continue;
    bool aborted_touched = false;
    for (const TxnRec& r : history_) {
      if (!r.committed && rec_mutates(r, table, 0, /*any_key=*/true)) aborted_touched = true;
    }
    const Anomaly kind = aborted_touched ? Anomaly::kCompensationInversion
                                         : Anomaly::kFinalStateDivergence;
    out.push_back(Violation{
        kind, info.name + ": final state diverges from the committed history (" +
                  std::to_string(actual.size()) + " actual vs " +
                  std::to_string(m.size()) + " modeled entries) [" +
                  std::string(anomaly_name(kind)) + "]"});
  }
}

// ---- checking: queues ----

void Oracle::check_queues(std::vector<Violation>& out) const {
  for (const auto& [table, info] : tables_) {
    if (info.kind != TableInfo::Kind::kQueue) continue;

    struct Ev {
      std::uint64_t stamp;
      int delta;
      long value;
    };
    std::vector<Ev> events;
    std::unordered_map<long, long> committed_put_stamp;  // value -> flush stamp
    bool aborted_removals = false;
    for (const TxnRec& r : history_) {
      for (const Op& op : r.ops) {
        if (op.table != table || op.cancelled) continue;
        switch (op.kind) {
          case Op::Kind::kQPut:
            if (r.committed) {
              events.push_back(Ev{r.end_event, +1, op.value});
              committed_put_stamp[op.value] = static_cast<long>(r.end_event);
            }
            break;
          case Op::Kind::kQPollHit:
          case Op::Kind::kQTakeHit:
            events.push_back(Ev{op.event, -1, op.observed});
            if (!r.committed) {
              // Compensation restores the element at the abort.
              events.push_back(Ev{r.end_event, +1, op.observed});
              aborted_removals = true;
            }
            break;
          default:
            break;
        }
      }
    }
    std::sort(events.begin(), events.end(),
              [](const Ev& a, const Ev& b) { return a.stamp < b.stamp; });

    // Bag contents strictly before / at a stamp.
    auto bag_at = [&](std::uint64_t t, bool inclusive) {
      std::unordered_map<long, int> bag;
      for (const long v : info.initial_queue) bag[v]++;
      for (const Ev& e : events) {
        if (e.stamp > t || (!inclusive && e.stamp == t)) continue;
        bag[e.value] += e.delta;
      }
      return bag;
    };
    auto bag_empty = [](const std::unordered_map<long, int>& bag) {
      for (const auto& [v, n] : bag) {
        if (n > 0) return false;
      }
      return true;
    };

    for (const TxnRec& r : history_) {
      for (const Op& op : r.ops) {
        if (op.table != table || op.cancelled) continue;
        const bool hit = op.kind == Op::Kind::kQPollHit ||
                         op.kind == Op::Kind::kQTakeHit ||
                         op.kind == Op::Kind::kQPeekHit;
        if (hit && r.committed) {
          // The element must exist: initial, or a put that committed first.
          const bool from_initial =
              std::find(info.initial_queue.begin(), info.initial_queue.end(),
                        op.observed) != info.initial_queue.end();
          auto pit = committed_put_stamp.find(op.observed);
          const bool from_commit =
              pit != committed_put_stamp.end() &&
              static_cast<std::uint64_t>(pit->second) < op.event;
          if (!from_initial && !from_commit) {
            out.push_back(Violation{
                Anomaly::kNotSerializable,
                id_str(r.id) + " on " + info.name + ": " + op_name(op.kind) +
                    " returned element " + std::to_string(op.observed) +
                    " that no committed put explains [not-serializable]"});
          }
        }
        const bool miss =
            op.kind == Op::Kind::kQPollMiss || op.kind == Op::Kind::kQPeekMiss;
        if (miss && r.committed) {
          // Some moment in [observation, flush] must have an empty bag.
          bool ever_empty = bag_empty(bag_at(op.event, /*inclusive=*/true));
          for (const Ev& e : events) {
            if (ever_empty) break;
            if (e.stamp > op.event && e.stamp <= r.end_event) {
              ever_empty = bag_empty(bag_at(e.stamp, /*inclusive=*/true));
            }
          }
          if (!ever_empty) {
            out.push_back(Violation{
                Anomaly::kLostSemanticLock,
                id_str(r.id) + " on " + info.name + ": committed an emptiness " +
                    "observation although the queue was never empty in its " +
                    "window — the empty lock failed [lost-semantic-lock]"});
          }
        }
      }
    }

    // Conservation: the final bag must match the actual final queue.
    if (info.final_set) {
      auto fin = bag_at(~std::uint64_t{0}, true);
      std::unordered_map<long, int> actual;
      for (const long v : info.final_queue) actual[v]++;
      bool same = true;
      for (const auto& [v, n] : fin) {
        if (n != 0 && actual[v] != n) same = false;
      }
      for (const auto& [v, n] : actual) {
        auto it = fin.find(v);
        if (n != 0 && (it == fin.end() || it->second != n)) same = false;
      }
      if (!same) {
        const Anomaly kind = aborted_removals ? Anomaly::kCompensationInversion
                                              : Anomaly::kFinalStateDivergence;
        out.push_back(Violation{
            kind, info.name + ": final queue contents diverge from the committed "
                      "history (elements lost or duplicated" +
                      std::string(aborted_removals ? "; aborted removals were in play"
                                                   : "") +
                      ") [" + anomaly_name(kind) + "]"});
      }
    }
  }
}

std::vector<Violation> Oracle::check() const {
  std::vector<Violation> out = eager_violations_;
  // Attempts that never flushed (defensive) are visible in history_ already;
  // pending ones are ignored — a litmus run always drains its workers.
  check_maps(out);
  check_queues(out);
  return out;
}

}  // namespace mc
