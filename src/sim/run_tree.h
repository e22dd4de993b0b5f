// The engine's runnable set: a tournament tree over virtual CPU ids.
//
// Leaf i holds CPU i's key `clock << kIdBits | id`, or kEmpty while that CPU
// is not runnable or is the one running.  The leaf count is padded to a power
// of two (padding leaves stay kEmpty), and each inner node holds the minimum
// of its two children, so the root is the (clock, id)-smallest runnable CPU:
// the engine's next pick, and the run limit of whichever CPU runs instead.
//
// Updating a leaf rewrites its fixed-depth path to the root with a
// branch-free min, carrying the running minimum in a register: each level
// waits on a sibling load, never on the store it just made.  A binary heap
// does the same work through data-dependent sift branches.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/config.h"

namespace sim {

class RunTree {
 public:
  static constexpr int kIdBits = std::bit_width(static_cast<unsigned>(Config::kMaxCpus - 1));
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  /// Clocks must stay below this: the largest clock that packs, plus the
  /// largest id, is the all-ones kEmpty marker.  It is also clock_of(kEmpty),
  /// so a run limit taken from an empty root still stops a fiber whose clock
  /// outgrows the key.
  static constexpr std::uint64_t kClockLimit = kEmpty >> kIdBits;

  static constexpr std::uint64_t key(std::uint64_t clock, int id) {
    return clock << kIdBits | static_cast<std::uint64_t>(id);
  }
  static constexpr std::uint64_t clock_of(std::uint64_t key) { return key >> kIdBits; }
  static constexpr int id_of(std::uint64_t key) {
    return static_cast<int>(key & ((std::uint64_t{1} << kIdBits) - 1));
  }

  /// A tree over CPUs [0, cpus), every leaf empty.
  explicit RunTree(int cpus)
      : cpus_(cpus), leaves_(std::bit_ceil(static_cast<std::size_t>(cpus))),
        node_(2 * leaves_, kEmpty) {}

  /// The smallest key, or kEmpty when no CPU is queued.
  std::uint64_t min() const { return node_[1]; }
  bool queued(int id) const { return node_[leaves_ + static_cast<std::size_t>(id)] != kEmpty; }

  /// Sets CPU `id`'s leaf to `key` (kEmpty dequeues it).
  void set(int id, std::uint64_t key) {
    std::size_t i = leaves_ + static_cast<std::size_t>(id);
    node_[i] = key;
    for (; i > 1; i >>= 1) {
      const std::uint64_t sibling = node_[i ^ 1];
      key = sibling < key ? sibling : key;
      node_[i >> 1] = key;
    }
  }

  /// Dequeues every CPU.
  void clear() { node_.assign(node_.size(), kEmpty); }

  /// Replaces `out` with the queued CPU ids, ascending.
  void queued_ids(std::vector<int>& out) const {
    out.clear();
    for (int id = 0; id < cpus_; ++id)
      if (queued(id)) out.push_back(id);
  }

 private:
  static_assert(Config::kMaxCpus <= 1 << kIdBits);

  int cpus_;
  std::size_t leaves_;
  std::vector<std::uint64_t> node_;  // node_[1] is the root; leaves start at leaves_
};

}  // namespace sim
