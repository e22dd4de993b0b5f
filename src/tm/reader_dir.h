// Line reader directory: which CPUs currently have a line in a read set.
//
// TCC conflict detection happens at commit: the committer walks its write
// set and must flag every other transaction that read one of the written
// lines.  Scanning every CPU's whole open-nesting stack for every line made
// that O(write-set x CPUs x depth) even when nobody read anything.  This
// directory inverts the read sets: per line, a bitmask of reader CPUs plus a
// per-(line, cpu) count (one CPU can hold a line in several stacked
// transactions' read sets at once — a parent and its open-nested child).
//
// Maintenance piggybacks on the read-log discipline the runtime already
// has: a transaction's read_log entry with prev < 0 marks the moment a line
// *entered* that transaction's read set, so
//   add()    on every prev<0 read-log append,
//   remove() when frame rollback undoes a prev<0 entry, and
//   remove() for each line left in read_frame when the transaction ends.
// The invariant (checked under TXCC_CHECKED) is count(line, cpu) ==
// number of transactions on cpu whose read_frame contains line.
//
// Reader masks are multi-word (Config::kMaxCpus = 128 bits): one uint64
// stride per 64 CPUs, sized from the simulation's actual num_cpus so an
// 8-CPU run still pays one word per line.  Consumers walk set bits with
// countr_zero word-skipping (see Runtime::flag_readers), keeping sparse
// reader sets O(set bits), not O(num_cpus).
//
// Bounds and counter-overflow conditions are routed through the
// TXCC_CHECKED audit (they were assert-only before, i.e. unchecked in
// Release): a per-(line, cpu) count that hits 255 SATURATES STICKILY — the
// count stops moving and the reader bit stays set for the rest of the run —
// which can only cause spurious violations, never missed ones.  Each
// saturated add is reported as Check::kReaderOverflow; underflow and
// out-of-range lines are reported as set corruption.
//
// Virtual addresses (sim/vaddr.h) are dense, so this is flat-array
// indexing, not hashing: idx = line - (kVaBase >> kLineShift).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/memsys.h"
#include "sim/vaddr.h"
#include "tm/audit.h"

namespace atomos {

class ReaderDir {
 public:
  explicit ReaderDir(int num_cpus)
      : ncpu_(static_cast<std::size_t>(num_cpus)),
        words_(static_cast<std::size_t>((num_cpus + 63) / 64)) {}

  void add(sim::LineAddr line, int cpu) {
    if (line < kLineBase) {
      audit::reader_dir_corrupt(line, cpu, "add below virtual heap");
      return;
    }
    const std::size_t i = index(line);
    if (i >= nlines_) {
      nlines_ = i + 1;
      mask_.resize(nlines_ * words_, 0);
      cnt_.resize(nlines_ * ncpu_, 0);
    }
    std::uint8_t& c = cnt_[i * ncpu_ + static_cast<std::size_t>(cpu)];
    if (c == 0xff) {  // saturate stickily: spurious flags beat missed ones
      audit::reader_count_overflow(line, cpu);
      return;
    }
    ++c;
    mask_[i * words_ + (static_cast<std::size_t>(cpu) >> 6)] |=
        std::uint64_t{1} << (cpu & 63);
  }

  void remove(sim::LineAddr line, int cpu) {
    if (line < kLineBase) {
      audit::reader_dir_corrupt(line, cpu, "remove below virtual heap");
      return;
    }
    const std::size_t i = index(line);
    if (i >= nlines_) {
      audit::reader_dir_corrupt(line, cpu, "remove of untracked line");
      return;
    }
    std::uint8_t& c = cnt_[i * ncpu_ + static_cast<std::size_t>(cpu)];
    if (c == 0) {
      audit::reader_dir_corrupt(line, cpu, "reader count underflow");
      return;
    }
    if (c == 0xff) return;  // saturated: count unknown, bit stays set
    if (--c == 0)
      mask_[i * words_ + (static_cast<std::size_t>(cpu) >> 6)] &=
          ~(std::uint64_t{1} << (cpu & 63));
  }

  /// Pointer to the line's reader-mask words (mask_stride() of them), or
  /// nullptr when no CPU has the line in a read set.  Valid until the next
  /// add() (which may grow the table).
  const std::uint64_t* mask_words(sim::LineAddr line) const {
    const std::size_t i = index(line);
    return i < nlines_ ? &mask_[i * words_] : nullptr;
  }
  std::size_t mask_stride() const { return words_; }

  /// Calls f(cpu) for every reader of `line` except `except` (the committer
  /// flagging its own write lines must not flag itself).  The word-parallel
  /// kernel of the commit broadcast: the excluded bit is masked out of its
  /// word up front and members are found with countr_zero over whole words,
  /// so a sparse reader set costs O(set bits) with no per-bit branches.
  template <class F>
  void for_each_reader_except(sim::LineAddr line, int except, F f) const {
    const std::size_t i = index(line);
    if (i >= nlines_) return;
    const std::uint64_t* words = &mask_[i * words_];
    const std::size_t xw = static_cast<std::size_t>(except) >> 6;
    const std::uint64_t xbit = std::uint64_t{1} << (except & 63);
    for (std::size_t wi = 0; wi < words_; ++wi) {
      std::uint64_t m = words[wi];
      if (wi == xw) m &= ~xbit;
      while (m != 0) {
        f(static_cast<int>(wi * 64) + std::countr_zero(m));
        m &= m - 1;
      }
    }
  }

  /// True if `cpu` has `line` in at least one live read set.
  bool is_reader(sim::LineAddr line, int cpu) const {
    const std::size_t i = index(line);
    if (i >= nlines_) return false;
    return ((mask_[i * words_ + (static_cast<std::size_t>(cpu) >> 6)] >>
             (cpu & 63)) &
            1u) != 0;
  }

  std::uint32_t count(sim::LineAddr line, int cpu) const {
    const std::size_t i = index(line);
    return i < nlines_ ? cnt_[i * ncpu_ + static_cast<std::size_t>(cpu)] : 0;
  }

 private:
  static constexpr sim::LineAddr kLineBase = sim::kVaBase >> sim::Config::kLineShift;

  static std::size_t index(sim::LineAddr line) {
    return static_cast<std::size_t>(line - kLineBase);
  }

  std::size_t ncpu_;
  std::size_t words_;   // mask words per line: ceil(ncpu / 64)
  std::size_t nlines_ = 0;
  std::vector<std::uint64_t> mask_;  // [line * words_ + w]: reader-CPU bits
  std::vector<std::uint8_t> cnt_;    // [line * ncpu + cpu]: live read-set refs
};

}  // namespace atomos
