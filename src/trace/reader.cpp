#include "trace/reader.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace trace {
namespace {

struct Parser {
  const std::string& buf;
  std::size_t pos = 0;

  explicit Parser(const std::string& b) : buf(b) {}

  void need(std::size_t n) const {
    if (pos + n > buf.size())
      throw std::runtime_error("txtrace: truncated trace file");
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(buf[pos + i]))
           << (8 * i);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(buf[pos + i]))
           << (8 * i);
    pos += 8;
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s = buf.substr(pos, n);
    pos += n;
    return s;
  }
};

std::string hex(std::uint64_t v) {
  char b[32];
  std::snprintf(b, sizeof b, "0x%llx", static_cast<unsigned long long>(v));
  return b;
}

}  // namespace

TraceFile read_trace_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("txtrace: cannot open " + path);
  std::string buf((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  Parser p(buf);

  p.need(8);
  if (buf.compare(0, 8, "TXTRACE1") != 0)
    throw std::runtime_error("txtrace: bad magic in " + path);
  p.pos = 8;

  TraceFile tf;
  tf.num_cpus = static_cast<int>(p.u32());
  if (tf.num_cpus < 0 || tf.num_cpus > 4096)
    throw std::runtime_error("txtrace: implausible cpu count");

  const std::uint32_t nlabels = p.u32();
  for (std::uint32_t i = 0; i < nlabels; ++i) {
    const std::uint64_t line = p.u64();
    tf.labels[line] = p.str();
  }
  const std::uint32_t ntables = p.u32();
  for (std::uint32_t i = 0; i < ntables; ++i) tf.table_names.push_back(p.str());

  tf.events.resize(static_cast<std::size_t>(tf.num_cpus));
  for (int c = 0; c < tf.num_cpus; ++c) {
    const std::uint64_t n = p.u64();
    auto& v = tf.events[static_cast<std::size_t>(c)];
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Event e{};
      e.cycle = p.u64();
      e.arg = p.u64();
      e.seq = p.u32();
      const std::uint32_t packed = p.u32();
      e.aux = static_cast<std::uint16_t>(packed & 0xFFFFu);
      e.kind = static_cast<std::uint8_t>((packed >> 16) & 0xFFu);
      e.cpu = static_cast<std::uint8_t>((packed >> 24) & 0xFFu);
      v.push_back(e);
    }
  }
  for (int c = 0; c < tf.num_cpus; ++c) tf.dropped.push_back(p.u64());
  return tf;
}

std::string label_of(const TraceFile& tf, std::uint64_t line) {
  auto it = tf.labels.find(line);
  return it != tf.labels.end() ? it->second : hex(line);
}

std::string table_of(const TraceFile& tf, std::uint64_t id) {
  if (id < tf.table_names.size() && !tf.table_names[id].empty())
    return tf.table_names[id];
  return "table#" + std::to_string(id);
}

// ---------------------------------------------------------------------------
// Conflict attribution
// ---------------------------------------------------------------------------

namespace {

struct Flag {
  std::uint64_t cycle;
  std::uint64_t key;   // line address or table id
  std::uint32_t order;  // global scan order (cpu asc, seq asc) for tie-breaks
  bool semantic;
};

}  // namespace

Attribution attribute(const TraceFile& tf) {
  Attribution a;
  a.chain_histogram.assign(Attribution::kMaxChain + 1, 0);
  for (std::uint64_t d : tf.dropped) a.dropped_events += d;

  // Collect violation flags per victim CPU, sorted by (cycle, scan order).
  std::vector<std::vector<Flag>> flags(
      static_cast<std::size_t>(tf.num_cpus));
  std::uint32_t order = 0;
  for (const auto& v : tf.events) {
    for (const Event& e : v) {
      const Kind k = static_cast<Kind>(e.kind);
      if (k != Kind::kViolationFlag && k != Kind::kSemViolationFlag) continue;
      const auto victim = static_cast<std::size_t>(e.aux);
      if (victim < flags.size())
        flags[victim].push_back(
            {e.cycle, e.arg, order, k == Kind::kSemViolationFlag});
      ++order;
    }
  }
  for (auto& v : flags)
    std::stable_sort(v.begin(), v.end(), [](const Flag& x, const Flag& y) {
      return x.cycle != y.cycle ? x.cycle < y.cycle : x.order < y.order;
    });

  // Site table keyed by (semantic, key).
  std::unordered_map<std::uint64_t, ConflictSite> mem_sites, sem_sites;
  auto site = [&](bool semantic, std::uint64_t key) -> ConflictSite& {
    auto& m = semantic ? sem_sites : mem_sites;
    ConflictSite& s = m[key];
    if (s.name.empty()) {
      s.key = key;
      s.semantic = semantic;
      s.name = semantic ? table_of(tf, key) : label_of(tf, key);
    }
    return s;
  };
  for (const auto& v : tf.events)
    for (const Event& e : v) {
      const Kind k = static_cast<Kind>(e.kind);
      if (k == Kind::kViolationFlag) site(false, e.arg).flags += 1;
      if (k == Kind::kSemViolationFlag) site(true, e.arg).flags += 1;
    }

  // Walk each CPU's stream: counters, chains, and per-abort attribution.
  for (int c = 0; c < tf.num_cpus; ++c) {
    const auto& v = tf.events[static_cast<std::size_t>(c)];
    const auto& fl = flags[static_cast<std::size_t>(c)];
    std::uint64_t begin_cycle = 0;
    std::size_t chain = 0;
    auto close_chain = [&] {
      if (chain == 0) return;
      a.chain_histogram[std::min(chain, Attribution::kMaxChain)] += 1;
      chain = 0;
    };
    for (const Event& e : v) {
      switch (static_cast<Kind>(e.kind)) {
        case Kind::kTxnBegin:
          begin_cycle = e.cycle;
          break;
        case Kind::kTxnCommit:
          a.commits += 1;
          close_chain();
          break;
        case Kind::kOpenCommit:
          a.open_commits += 1;
          break;
        case Kind::kOpenAbort:
          a.open_aborts += 1;
          break;
        case Kind::kTxnAbort: {
          a.aborts += 1;
          chain += 1;
          a.wasted_total += e.arg;
          const bool want_sem = (e.aux & kAuxSemanticBit) != 0;
          // Latest flag at or before the abort, preferring the current
          // incarnation's window [begin, abort] and the kill's kind.
          auto it = std::upper_bound(
              fl.begin(), fl.end(), e.cycle,
              [](std::uint64_t t, const Flag& f) { return t < f.cycle; });
          const Flag* best = nullptr;
          const Flag* fallback = nullptr;
          while (it != fl.begin()) {
            --it;
            if (it->semantic != want_sem) continue;
            if (it->cycle >= begin_cycle) {
              best = &*it;
              break;
            }
            if (fallback == nullptr) fallback = &*it;
            break;  // older flags are even further out of window
          }
          if (best == nullptr) best = fallback;
          if (best != nullptr) {
            ConflictSite& s = site(best->semantic, best->key);
            s.wasted_cycles += e.arg;
            if (best->semantic)
              a.wasted_semantic += e.arg;
            else
              a.wasted_memory += e.arg;
          } else {
            a.wasted_unattributed += e.arg;
          }
          break;
        }
        default:
          break;
      }
    }
    close_chain();
  }

  for (auto& [k, s] : mem_sites) a.sites.push_back(s);
  for (auto& [k, s] : sem_sites) a.sites.push_back(s);
  std::sort(a.sites.begin(), a.sites.end(),
            [](const ConflictSite& x, const ConflictSite& y) {
              if (x.wasted_cycles != y.wasted_cycles)
                return x.wasted_cycles > y.wasted_cycles;
              if (x.flags != y.flags) return x.flags > y.flags;
              return x.name < y.name;
            });
  return a;
}

std::string format_report(const TraceFile& tf, const Attribution& a,
                          std::size_t top_k) {
  std::string out;
  char b[256];
  auto pct = [&](std::uint64_t num) {
    return a.wasted_total == 0
               ? 0.0
               : 100.0 * static_cast<double>(num) /
                     static_cast<double>(a.wasted_total);
  };
  std::size_t total_events = 0;
  for (const auto& v : tf.events) total_events += v.size();

  std::snprintf(b, sizeof b,
                "txtrace conflict-attribution report\n"
                "  cpus: %d   events: %zu   dropped: %llu\n",
                tf.num_cpus, total_events,
                static_cast<unsigned long long>(a.dropped_events));
  out += b;
  std::snprintf(
      b, sizeof b,
      "  top-level:   %llu commits, %llu aborts (%.2f aborts/commit)\n",
      static_cast<unsigned long long>(a.commits),
      static_cast<unsigned long long>(a.aborts),
      a.commits == 0 ? 0.0
                     : static_cast<double>(a.aborts) /
                           static_cast<double>(a.commits));
  out += b;
  std::snprintf(b, sizeof b, "  open-nested: %llu commits, %llu aborts\n",
                static_cast<unsigned long long>(a.open_commits),
                static_cast<unsigned long long>(a.open_aborts));
  out += b;
  std::snprintf(b, sizeof b,
                "  wasted cycles: %llu  (memory %.1f%%, semantic %.1f%%, "
                "unattributed %.1f%%)\n\n",
                static_cast<unsigned long long>(a.wasted_total),
                pct(a.wasted_memory), pct(a.wasted_semantic),
                pct(a.wasted_unattributed));
  out += b;

  out += "top conflict sites (by attributed wasted cycles):\n";
  out += "  rank kind site                              flags      wasted "
         "  share\n";
  std::size_t rank = 0;
  for (const ConflictSite& s : a.sites) {
    if (rank >= top_k) break;
    ++rank;
    std::snprintf(b, sizeof b, "  %-4zu %-4s %-32s %7llu %12llu %6.1f%%\n",
                  rank, s.semantic ? "sem" : "mem", s.name.c_str(),
                  static_cast<unsigned long long>(s.flags),
                  static_cast<unsigned long long>(s.wasted_cycles),
                  pct(s.wasted_cycles));
    out += b;
  }
  if (a.sites.empty()) out += "  (no violation flags recorded)\n";

  out += "\nabort-chain depth histogram (consecutive top-level aborts per "
         "CPU):\n";
  bool any = false;
  for (std::size_t d = 1; d < a.chain_histogram.size(); ++d) {
    if (a.chain_histogram[d] == 0) continue;
    any = true;
    std::snprintf(b, sizeof b, "  depth %s%zu: %llu\n",
                  d == Attribution::kMaxChain ? ">=" : "", d,
                  static_cast<unsigned long long>(a.chain_histogram[d]));
    out += b;
  }
  if (!any) out += "  (no aborts)\n";
  return out;
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

namespace {

void json_escape(std::string& out, const std::string& s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char b[8];
          std::snprintf(b, sizeof b, "\\u%04x", ch);
          out += b;
        } else {
          out += ch;
        }
    }
  }
}

class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  void event(const std::string& name, const char* ph, int tid,
             std::uint64_t ts, const std::string& extra) {
    if (!first_) out_ += ",\n";
    first_ = false;
    out_ += R"({"name":")";
    json_escape(out_, name);
    out_ += R"(","ph":")";
    out_ += ph;
    out_ += R"(","pid":0,"tid":)";
    out_ += std::to_string(tid);
    out_ += R"(,"ts":)";
    out_ += std::to_string(ts);
    if (!extra.empty()) {
      out_ += ",";
      out_ += extra;
    }
    out_ += "}";
  }

 private:
  std::string& out_;
  bool first_ = true;
};

}  // namespace

std::string chrome_trace_json(const TraceFile& tf) {
  std::string out;
  out += "{\"traceEvents\":[\n";
  JsonWriter w(out);

  for (int c = 0; c < tf.num_cpus; ++c)
    w.event("thread_name", "M", c, 0,
            R"("args":{"name":"cpu )" + std::to_string(c) + R"("})");

  // Victim abort index for flow arrows: per cpu, the (cycle) of each
  // top-level abort in stream order.
  std::vector<std::vector<std::uint64_t>> abort_cycles(
      static_cast<std::size_t>(tf.num_cpus));
  for (const auto& v : tf.events)
    for (const Event& e : v)
      if (static_cast<Kind>(e.kind) == Kind::kTxnAbort)
        abort_cycles[e.cpu].push_back(e.cycle);

  std::uint64_t flow_id = 0;
  for (int c = 0; c < tf.num_cpus; ++c) {
    const auto& v = tf.events[static_cast<std::size_t>(c)];
    std::vector<Kind> open_slices;
    std::uint64_t last_cycle = 0;
    for (const Event& e : v) {
      last_cycle = e.cycle;
      const Kind k = static_cast<Kind>(e.kind);
      switch (k) {
        case Kind::kTxnBegin:
        case Kind::kOpenBegin: {
          const bool open = k == Kind::kOpenBegin;
          w.event(open ? "open" : "txn", "B", c, e.cycle,
                  R"("args":{"incarnation":)" + std::to_string(e.arg) +
                      R"(,"attempt":)" +
                      std::to_string(e.aux & ~kAuxSemanticBit) + "}");
          open_slices.push_back(k);
          break;
        }
        case Kind::kTxnCommit:
        case Kind::kOpenCommit:
          w.event(k == Kind::kOpenCommit ? "open" : "txn", "E", c, e.cycle,
                  R"("args":{"writes":)" + std::to_string(e.arg) + "}");
          if (!open_slices.empty()) open_slices.pop_back();
          break;
        case Kind::kTxnAbort:
        case Kind::kOpenAbort:
          w.event(k == Kind::kOpenAbort ? "open" : "txn", "E", c, e.cycle,
                  R"("args":{"aborted":true,"lost":)" + std::to_string(e.arg) +
                      R"(,"semantic":)" +
                      ((e.aux & kAuxSemanticBit) != 0 ? "true" : "false") +
                      "}");
          if (!open_slices.empty()) open_slices.pop_back();
          break;
        case Kind::kLockAcquire:
          w.event("lock:" + table_of(tf, e.arg), "i", c, e.cycle,
                  R"("s":"t")");
          break;
        case Kind::kLockRelease:
          w.event("unlock:" + table_of(tf, e.arg), "i", c, e.cycle,
                  R"("s":"t")");
          break;
        case Kind::kLockBlock:
          w.event("token-wait(owner=cpu" + std::to_string(e.arg) + ")", "i",
                  c, e.cycle, R"("s":"t")");
          break;
        case Kind::kViolationFlag:
        case Kind::kSemViolationFlag: {
          const bool sem = k == Kind::kSemViolationFlag;
          const std::string site =
              sem ? table_of(tf, e.arg) : label_of(tf, e.arg);
          const int victim = static_cast<int>(e.aux);
          w.event((sem ? "sem-violate:" : "violate:") + site, "i", c, e.cycle,
                  R"("s":"t","args":{"victim":)" + std::to_string(victim) +
                      "}");
          // Flow arrow to the victim's next top-level abort.
          if (victim >= 0 && victim < tf.num_cpus) {
            const auto& ac = abort_cycles[static_cast<std::size_t>(victim)];
            auto it = std::lower_bound(ac.begin(), ac.end(), e.cycle);
            if (it != ac.end()) {
              const std::uint64_t id = flow_id++;
              w.event("violation", "s", c, e.cycle,
                      R"("cat":"violation","id":)" + std::to_string(id));
              w.event("violation", "f", victim, *it,
                      R"("cat":"violation","bp":"e","id":)" +
                          std::to_string(id));
            }
          }
          break;
        }
        case Kind::kHandlerRun:
          w.event(e.aux != 0 ? "abort-handlers" : "commit-handlers", "i", c,
                  e.cycle,
                  R"("s":"t","args":{"count":)" + std::to_string(e.arg) + "}");
          break;
        case Kind::kMiss: {
          static const char* kNames[] = {"miss:load", "miss:store",
                                         "miss:tx-load", "miss:tx-store"};
          const std::size_t klass = std::min<std::size_t>(e.aux, 3);
          w.event(kNames[klass], "i", c, e.cycle,
                  R"("s":"t","args":{"line":")" + hex(e.arg) + R"("})");
          break;
        }
        default:
          break;
      }
    }
    // Close any slice left open by buffer overflow or a torn stream so the
    // JSON stays balanced.
    while (!open_slices.empty()) {
      w.event(open_slices.back() == Kind::kOpenBegin ? "open" : "txn", "E", c,
              last_cycle, R"("args":{"truncated":true})");
      open_slices.pop_back();
    }
  }

  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

}  // namespace trace
