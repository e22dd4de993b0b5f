// sim::FlatMap — the open-addressing hash table behind every TM hot path.
//
// Replaces std::unordered_map in the per-access structures (transaction
// read/write sets, chop footprints): a SwissTable-style two-array layout
// probed a 16-slot group at a time.  A byte array of 7-bit hash fragments
// (control bytes) runs ahead of the slot array, so a probe compares 16
// candidate fragments in one SSE2 cmpeq/movemask and touches the wide slot
// array only for fragment hits.  Misses usually terminate without loading
// a single slot, and collision chains cost one group scan instead of a
// slot-by-slot walk.
//
// The probe SEQUENCE is still plain linear probing over slot indices —
// insertion goes to the first empty slot at or after home(key), exactly as
// the pre-SIMD implementation placed it — so the physical layout and the
// for_each visit order are bit-identical to the scalar table.  The control
// bytes are a pure acceleration structure.
//
// The table only grows: there is no erase.  Entries leave all at once,
// through the property the TM runtime leans on: an O(1)
// generation-stamped clear() — pooled transactions reset their sets
// between attempts by bumping a generation counter, never by touching the
// (possibly large) slot array.  Occupancy lives in the control bytes, so
// the generation is per GROUP: a group whose stamp is stale is logically
// all-empty and its control bytes are re-materialized lazily on the first
// insert that probes it.
//
// K and V must be trivially copyable; K is compared with ==.  Iteration
// (for_each) visits live slots in ascending slot order — callers must not
// let that order affect simulated timing.
#pragma once

// SSE2 is part of the x86-64 baseline, and x86-64 is the only platform the
// simulator builds for (its fiber switch, sim/context.S, is x86-64 System V
// assembly), so the group probes need no portable fallback.
#if !defined(__SSE2__)
#error "sim::FlatMap needs SSE2 (any x86-64 target has it)"
#endif
#include <emmintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace sim {

/// 64-bit finalizer-style mixer (splitmix64 tail): the hash behind FlatMap
/// probing and the TM write-set Bloom summary.
inline std::uint64_t hash_u64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

namespace detail {

/// Control-byte group kernel: 16 bytes -> two 16-bit masks.  A control byte
/// is either kCtrlEmpty (0x80, high bit set) or the occupant's 7-bit hash
/// fragment (high bit clear), so "empty" is exactly the byte's sign bit.
inline constexpr std::uint8_t kCtrlEmpty = 0x80;
inline constexpr std::size_t kGroupSlots = 16;

struct GroupBits {
  std::uint32_t match;  // bit o: ctrl[o] == fragment (callers confirm with
                        // a key compare: fragments are only 7 bits)
  std::uint32_t empty;  // bit o: ctrl[o] is empty
};

inline GroupBits group_probe(const std::uint8_t* ctrl, std::uint8_t frag) {
  const __m128i g = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
  const __m128i eq = _mm_cmpeq_epi8(g, _mm_set1_epi8(static_cast<char>(frag)));
  return {static_cast<std::uint32_t>(_mm_movemask_epi8(eq)),
          static_cast<std::uint32_t>(_mm_movemask_epi8(g))};
}

inline std::uint32_t group_empty_bits(const std::uint8_t* ctrl) {
  const __m128i g = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
  return static_cast<std::uint32_t>(_mm_movemask_epi8(g));
}

}  // namespace detail

template <class K, class V>
class FlatMap {
  static_assert(std::is_trivially_copyable_v<K>, "FlatMap requires trivially copyable keys");
  static_assert(std::is_trivially_copyable_v<V>, "FlatMap requires trivially copyable values");

 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Forgets every entry in O(1) by bumping the generation stamp: every
  /// group's stamp goes stale at once, and stale groups read as all-empty.
  void clear() {
    size_ = 0;
    if (++gen_ == 0) {  // wraparound: lazily-stale groups would look live
      std::fill(ggen_.begin(), ggen_.end(), 0u);
      gen_ = 1;
    }
  }

  /// Pointer to the value for `key`, or nullptr.
  V* find(K key) {
    if (size_ == 0) return nullptr;
    const std::size_t i = probe(key);
    return i == kNpos ? nullptr : &slots_[i].val;
  }
  const V* find(K key) const { return const_cast<FlatMap*>(this)->find(key); }

  /// Inserts (key, init) if absent.  Returns (value slot, inserted?).
  /// The returned pointer is valid until the next insert or clear.
  std::pair<V*, bool> try_emplace(K key, V init) {
    if (size_ + 1 > cap_threshold()) grow();
    const std::uint64_t h = hash_u64(static_cast<std::uint64_t>(key));
    const std::uint8_t frag = frag_of(h);
    const std::size_t start = static_cast<std::size_t>(h) & mask_;
    const std::size_t ngroups = group_count();
    std::size_t g = start / detail::kGroupSlots;
    // Home-slot fast path: at the TM runtime's load factors the home slot
    // is almost always the answer (a hit on the key, or empty = insert
    // here), and three scalar loads beat the vector-kernel setup.  Probe
    // chains fall through to the group loop.
    if (ggen_[g] == gen_) {
      const std::uint8_t c0 = ctrl_[start];
      if (c0 == frag && slots_[start].key == key) return {&slots_[start].val, false};
      if (c0 == detail::kCtrlEmpty) {
        ctrl_[start] = frag;
        slots_[start].key = key;
        slots_[start].val = init;
        ++size_;
        return {&slots_[start].val, true};
      }
    }
    std::uint32_t valid = (0xffffu << (start & (detail::kGroupSlots - 1))) & 0xffffu;
    for (;;) {
      std::size_t at;
      if (ggen_[g] == gen_) {
        const detail::GroupBits gb =
            detail::group_probe(&ctrl_[g * detail::kGroupSlots], frag);
        std::uint32_t m = gb.match & valid;
        const std::uint32_t e = gb.empty & valid;
        if (e != 0) m &= (e & (0u - e)) - 1;  // candidates before first empty
        while (m != 0) {
          Slot& s = slots_[g * detail::kGroupSlots +
                           static_cast<std::size_t>(std::countr_zero(m))];
          if (s.key == key) return {&s.val, false};
          m &= m - 1;
        }
        if (e == 0) {  // probe chain continues into the next group
          g = (g + 1 == ngroups) ? 0 : g + 1;
          valid = 0xffffu;
          continue;
        }
        at = g * detail::kGroupSlots + static_cast<std::size_t>(std::countr_zero(e));
      } else {
        // Stale group: logically all-empty.  Materialize its control bytes
        // for the current generation, then insert at the first probed slot.
        std::memset(&ctrl_[g * detail::kGroupSlots], detail::kCtrlEmpty,
                    detail::kGroupSlots);
        ggen_[g] = gen_;
        at = g * detail::kGroupSlots + static_cast<std::size_t>(std::countr_zero(valid));
      }
      ctrl_[at] = frag;
      slots_[at].key = key;
      slots_[at].val = init;
      ++size_;
      return {&slots_[at].val, true};
    }
  }

  /// Visits every live (key, value) pair in ascending slot order;
  /// `fn(K, const V&)`.  Stale groups are skipped 16 slots at a time.
  template <class F>
  void for_each(F&& fn) const {
    if (size_ == 0) return;
    const std::size_t ngroups = group_count();
    for (std::size_t g = 0; g < ngroups; ++g) {
      if (ggen_[g] != gen_) continue;
      std::uint32_t live =
          ~detail::group_empty_bits(&ctrl_[g * detail::kGroupSlots]) & 0xffffu;
      while (live != 0) {
        const Slot& s = slots_[g * detail::kGroupSlots +
                               static_cast<std::size_t>(std::countr_zero(live))];
        fn(s.key, s.val);
        live &= live - 1;
      }
    }
  }

  /// Test hook: rebases the generation counter (preserving every entry's
  /// liveness) so the uint32 wraparound path of clear() can be reached
  /// without four billion clears.  Not for production callers.
  void set_generation_for_test(std::uint32_t g) {
    if (g == 0) g = 1;  // 0 is reserved for "never stamped"
    for (std::uint32_t& s : ggen_) s = (s == gen_) ? g : g - 1;
    gen_ = g;
  }

 private:
  struct Slot {
    K key;
    V val;
  };

  static constexpr std::size_t kMinCap = 16;
  static constexpr std::size_t kNpos = ~std::size_t{0};

  /// 7-bit control fragment: the hash's top bits, independent of the low
  /// bits that pick the home slot, so same-slot colliders usually differ.
  static std::uint8_t frag_of(std::uint64_t h) {
    return static_cast<std::uint8_t>(h >> 57);
  }

  std::size_t group_count() const { return slots_.size() / detail::kGroupSlots; }
  std::size_t cap_threshold() const { return slots_.size() - slots_.size() / 4; }  // 75%

  /// Slot index of `key`, or kNpos.  One group kernel per 16 candidate
  /// slots; a stale group or an empty byte terminates the chain.
  std::size_t probe(K key) const {
    const std::uint64_t h = hash_u64(static_cast<std::uint64_t>(key));
    const std::uint8_t frag = frag_of(h);
    const std::size_t start = static_cast<std::size_t>(h) & mask_;
    const std::size_t ngroups = group_count();
    std::size_t g = start / detail::kGroupSlots;
    // Home-slot fast path (see try_emplace): hit or definite miss without
    // touching the vector kernel.
    if (ggen_[g] != gen_) return kNpos;
    {
      const std::uint8_t c0 = ctrl_[start];
      if (c0 == frag && slots_[start].key == key) return start;
      if (c0 == detail::kCtrlEmpty) return kNpos;
    }
    std::uint32_t valid = (0xffffu << (start & (detail::kGroupSlots - 1))) & 0xffffu;
    for (;;) {
      if (ggen_[g] != gen_) return kNpos;  // stale group: chain ends
      const detail::GroupBits gb =
          detail::group_probe(&ctrl_[g * detail::kGroupSlots], frag);
      std::uint32_t m = gb.match & valid;
      const std::uint32_t e = gb.empty & valid;
      if (e != 0) m &= (e & (0u - e)) - 1;  // candidates before first empty
      while (m != 0) {
        const std::size_t i =
            g * detail::kGroupSlots + static_cast<std::size_t>(std::countr_zero(m));
        if (slots_[i].key == key) return i;
        m &= m - 1;
      }
      if (e != 0) return kNpos;  // an empty slot before any match: absent
      g = (g + 1 == ngroups) ? 0 : g + 1;
      valid = 0xffffu;
    }
  }

  void grow() {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<std::uint32_t> old_ggen = std::move(ggen_);
    const std::uint32_t old_gen = gen_;
    const std::size_t new_cap = old_slots.empty() ? kMinCap : old_slots.size() * 2;
    slots_.assign(new_cap, Slot{});
    ctrl_.assign(new_cap, detail::kCtrlEmpty);
    ggen_.assign(new_cap / detail::kGroupSlots, 1u);
    mask_ = new_cap - 1;
    gen_ = 1;
    size_ = 0;
    // Reinsert in ascending old-slot order: reproduces exactly the layout a
    // scalar first-empty-at-or-after-home rebuild would produce.
    for (std::size_t g = 0; g * detail::kGroupSlots < old_slots.size(); ++g) {
      if (old_ggen[g] != old_gen) continue;
      std::uint32_t live =
          ~detail::group_empty_bits(&old_ctrl[g * detail::kGroupSlots]) & 0xffffu;
      while (live != 0) {
        const std::size_t oi = g * detail::kGroupSlots +
                               static_cast<std::size_t>(std::countr_zero(live));
        live &= live - 1;
        const Slot& s = old_slots[oi];
        const std::uint64_t h = hash_u64(static_cast<std::uint64_t>(s.key));
        std::size_t i = static_cast<std::size_t>(h) & mask_;
        while (ctrl_[i] < detail::kCtrlEmpty) i = (i + 1) & mask_;
        ctrl_[i] = frag_of(h);
        slots_[i] = s;
        ++size_;
      }
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> ctrl_;   // 7-bit fragments / kCtrlEmpty, per slot
  std::vector<std::uint32_t> ggen_;  // per 16-slot group: live iff == gen_
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t gen_ = 1;
};

}  // namespace sim
