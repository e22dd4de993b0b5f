#include "trace/tracer.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

namespace trace {
namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// True if `name` is one of the '+'-separated parts of `joined`.
bool has_part(std::string_view joined, std::string_view name) {
  for (;;) {
    const std::size_t plus = joined.find('+');
    if (joined.substr(0, plus) == name) return true;
    if (plus == std::string_view::npos) return false;
    joined.remove_prefix(plus + 1);
  }
}

bool arg_is_table(Kind k) {
  return k == Kind::kLockAcquire || k == Kind::kLockRelease ||
         k == Kind::kSemViolationFlag;
}

// A buffer's event count is a uint32_t: a larger capacity would wrap (2^32
// to 0, so every event dropped).
std::uint32_t checked_capacity(std::size_t capacity_per_cpu) {
  if (capacity_per_cpu > UINT32_MAX) {
    throw std::invalid_argument("trace: per-CPU capacity " + std::to_string(capacity_per_cpu) +
                                " exceeds " + std::to_string(UINT32_MAX) + " events");
  }
  return static_cast<std::uint32_t>(capacity_per_cpu == 0 ? 1 : capacity_per_cpu);
}

}  // namespace

Tracer::Tracer(int num_cpus, std::size_t capacity_per_cpu)
    : num_cpus_(num_cpus),
      cap_(checked_capacity(capacity_per_cpu)),
      bufs_(new Buf[static_cast<std::size_t>(num_cpus > 0 ? num_cpus : 1)]) {
  for (int c = 0; c < num_cpus_; ++c)
    bufs_[idx(c)].ev = std::make_unique<Event[]>(cap_);
}

void Tracer::name_table(const void* table, const std::string& name) {
  table_names_[table] = name;
}

void Tracer::label_cell(std::uint64_t addr, std::size_t len, const std::string& name) {
  const std::uint64_t first = addr >> kLineShift;
  const std::uint64_t last = (addr + (len == 0 ? 0 : len - 1)) >> kLineShift;
  for (std::uint64_t line = first; line <= last; ++line) {
    std::string& joined = labels_[line];
    if (joined.empty()) {
      joined = name;
    } else if (!has_part(joined, name)) {
      joined += '+';
      joined += name;
    }
  }
}

// File layout (all integers little-endian):
//   "TXTRACE1"
//   u32 num_cpus
//   u32 num_labels, then per label: u64 line, u32 len, bytes   (line-sorted)
//   u32 num_tables, then per dense id: u32 len, bytes          (id order)
//   per cpu 0..N-1: u64 count, count * 24-byte events,
//                   with table-pointer args replaced by dense ids
//   per cpu 0..N-1: u64 dropped
//
// Table ids are assigned by first appearance in (cpu asc, seq asc) order, so
// they are a pure function of the simulated execution even though the
// in-memory args are host pointers.
void Tracer::write(const std::string& path) const {
  std::string out;
  out.append("TXTRACE1");
  put_u32(out, static_cast<std::uint32_t>(num_cpus_));

  std::vector<std::pair<std::uint64_t, std::string>> labels(labels_.begin(),
                                                            labels_.end());
  std::sort(labels.begin(), labels.end());
  put_u32(out, static_cast<std::uint32_t>(labels.size()));
  for (const auto& [line, name] : labels) {
    put_u64(out, line);
    put_str(out, name);
  }

  // Intern table pointers in canonical order.
  std::unordered_map<std::uint64_t, std::uint32_t> table_id;
  std::vector<std::uint64_t> table_ptrs;
  for (int c = 0; c < num_cpus_; ++c) {
    const Buf& b = bufs_[idx(c)];
    for (std::uint32_t i = 0; i < b.n; ++i) {
      const Event& e = b.ev[i];
      if (!arg_is_table(static_cast<Kind>(e.kind))) continue;
      if (table_id.emplace(e.arg, table_ptrs.size()).second)
        table_ptrs.push_back(e.arg);
    }
  }
  put_u32(out, static_cast<std::uint32_t>(table_ptrs.size()));
  for (std::uint64_t p : table_ptrs) {
    auto it = table_names_.find(reinterpret_cast<const void*>(
        static_cast<std::uintptr_t>(p)));
    put_str(out, it == table_names_.end() ? std::string() : it->second);
  }

  for (int c = 0; c < num_cpus_; ++c) {
    const Buf& b = bufs_[idx(c)];
    put_u64(out, b.n);
    for (std::uint32_t i = 0; i < b.n; ++i) {
      Event e = b.ev[i];
      if (arg_is_table(static_cast<Kind>(e.kind))) e.arg = table_id.at(e.arg);
      put_u64(out, e.cycle);
      put_u64(out, e.arg);
      put_u32(out, e.seq);
      put_u32(out, static_cast<std::uint32_t>(e.aux) |
                       (static_cast<std::uint32_t>(e.kind) << 16) |
                       (static_cast<std::uint32_t>(e.cpu) << 24));
    }
  }
  for (int c = 0; c < num_cpus_; ++c) put_u64(out, bufs_[idx(c)].dropped);

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("txtrace: cannot open " + path);
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  f.flush();
  if (!f) throw std::runtime_error("txtrace: short write to " + path);
}

// --- thread-local request plumbing -----------------------------------------

namespace {
thread_local Request tls_request;       // NOLINT
thread_local bool tls_request_pending = false;  // NOLINT
}  // namespace

void set_request(const std::string& path, std::size_t capacity) {
  tls_request.path = path;
  tls_request.capacity = capacity == 0 ? kDefaultCapacity : capacity;
  tls_request_pending = true;
}

bool take_request(Request& out) {
  if (!tls_request_pending) return false;
  out = tls_request;
  tls_request_pending = false;
  return true;
}

void clear_request() { tls_request_pending = false; }

}  // namespace trace
