// atomos::Shared<T> — a transactional memory cell.
//
// Every piece of state that is shared between virtual CPUs must live in a
// Shared<T>.  Accesses are routed by execution mode:
//
//  * outside a simulation (setup/teardown code): raw, untimed access;
//  * Mode::kLock: direct access with MESI-timed loads/stores (this is what
//    the paper's lock-based "Java" runs see);
//  * Mode::kTcc inside a transaction: the read joins the transaction's
//    read set and the write is buffered until commit — exactly how a field
//    access of a plain java.util collection behaves under Atomos.
//
// T must be trivially copyable and at most 8 bytes (words): pointers,
// integers, bools, small enums.  Aggregate state is built from nodes that
// contain Shared fields (see src/jstd).  The cell's *simulated address* —
// a deterministic virtual address assigned at construction (sim/vaddr.h) —
// is its identity for conflict detection and timing, so Shared is neither
// copyable nor movable; false sharing between cells constructed adjacently
// (eight words per virtual cache line) is deliberately modelled, as on the
// paper's HTM.  Using virtual rather than host addresses makes simulated
// cycle counts independent of the binary's memory layout.
//
// A cell checks its own contract: its memory class is a required constructor
// argument, and a raw peek or a profile label on a worker fiber throws
// std::logic_error, in every build.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "sim/engine.h"
#include "sim/vaddr.h"
#include "tm/runtime.h"
#include "trace/tracer.h"

namespace atomos {

template <class T>
class Shared {
  static_assert(std::is_trivially_copyable_v<T>, "Shared<T> requires trivially copyable T");
  static_assert(sizeof(T) <= 8, "Shared<T> holds at most a machine word");

 public:
  /// `mc` is the cell's memory class (sim/vaddr.h): which arena its virtual
  /// address comes from and whether it gets a private cache line.  It has
  /// no default: bulk element cells name sim::kDataCell, hot metadata and
  /// counter cells sim::kMetaCell / sim::kCounterCell.
  ///
  /// `name` (optional) labels the cell for TAPE-style conflict profiling in
  /// the tracer the Runtime attached (trace::Tracer::label_cell).  A label
  /// is host state that no abort rolls back, so it belongs in setup, after
  /// the Runtime: on a worker fiber it throws, tracer or not.
  explicit Shared(T v, sim::MemClass mc, const char* name = nullptr)
      : v_(v), va_(sim::va_alloc(sizeof(T), mc)) {
    if (name == nullptr) return;
    if (sim::Engine::in_worker())
      throw std::logic_error("atomos::Shared: a labelled cell built on a worker fiber");
    Runtime* rt = Runtime::current_or_null();
    trace::Tracer* tracer = rt != nullptr ? rt->tracer() : nullptr;
    if (tracer != nullptr) tracer->label_cell(va_, sizeof(T), name);
  }

  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;

  /// Transactionally reads the cell.
  T get() const {
    sim::Engine* ep = sim::Engine::current_or_null();  // one TLS load
    if (ep == nullptr || !ep->on_worker_fiber()) return v_;
    sim::Engine& e = *ep;
    if (e.config().mode == sim::Mode::kLock) {
      e.advance_to(e.memsys().plain_load(e.cpu_id(), va_, e.now()));
      return v_;
    }
    T out;
    Runtime::current().tm_read(va_, &out, sizeof(T), &v_);
    return out;
  }

  /// Transactionally writes the cell.
  void set(const T& v) {
    sim::Engine* ep = sim::Engine::current_or_null();  // one TLS load
    if (ep == nullptr || !ep->on_worker_fiber()) {
      v_ = v;
      return;
    }
    sim::Engine& e = *ep;
    if (e.config().mode == sim::Mode::kLock) {
      e.advance_to(e.memsys().plain_store(e.cpu_id(), va_, e.now()));
      v_ = v;
      return;
    }
    Runtime::current().tm_write(va_, &v, sizeof(T), &v_);
  }

  /// The committed value, read behind the read set: for setup, oracles,
  /// post-run audits and teardown.  On a worker fiber, where no conflict
  /// detection would cover the read, it throws.
  const T& unsafe_peek() const {
    if (sim::Engine::in_worker())
      throw std::logic_error("atomos::Shared::unsafe_peek on a worker fiber");
    return v_;
  }

  /// The committed value with no check, no read-set entry and no cost: only
  /// for jbb's Sequence::current(), whose callers accept a stale bound.
  const T& stale_read() const { return v_; }

  // Sugar so Shared fields read naturally in data-structure code.
  operator T() const { return get(); }         // NOLINT(google-explicit-constructor)
  Shared& operator=(const T& v) {
    set(v);
    return *this;
  }

 private:
  T v_;                     // committed host storage
  std::uintptr_t va_;       // simulated address (conflict/timing identity)
};

}  // namespace atomos
