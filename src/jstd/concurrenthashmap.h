// jstd::ConcurrentHashMap — the util.concurrent-style segmented hash map
// the paper discusses in Sections 2.2/2.4: the table is partitioned into
// independent segments, each with its own size field (and, in lock mode, its
// own lock), which *statistically reduces* but does not eliminate conflicts.
//
//  * Mode::kLock: per-segment mutexes guard each operation — the classic
//    lock-striped ConcurrentHashMap baseline.
//  * Mode::kTcc: the mutexes are bypassed (the enclosing transaction
//    provides atomicity) and the segmented layout is exactly the
//    "alternative data structure" approach of Adl-Tabatabai et al. that the
//    paper argues still conflicts once transactions grow long — reproduced
//    by the ablation_segmented benchmark.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "jstd/hashmap.h"
#include "jstd/interfaces.h"
#include "tm/mutex.h"

namespace jstd {

template <class K, class V, class Hash = std::hash<K>, class Eq = std::equal_to<K>>
class ConcurrentHashMap final : public Map<K, V> {
 public:
  explicit ConcurrentHashMap(std::size_t segments = 16,
                             std::size_t initial_buckets_per_segment = 16)
      : nsegments_(round_up_pow2(segments)) {
    segs_.reserve(nsegments_);
    for (std::size_t i = 0; i < nsegments_; ++i) {
      segs_.push_back(std::make_unique<Segment>(initial_buckets_per_segment));
    }
  }

  std::optional<V> get(const K& key) const override {
    Segment& s = segment(key);
    atomos::LockModeGuard g(s.mu);
    return s.map.get(key);
  }

  bool contains_key(const K& key) const override {
    Segment& s = segment(key);
    atomos::LockModeGuard g(s.mu);
    return s.map.contains_key(key);
  }

  std::optional<V> put(const K& key, const V& value) override {
    Segment& s = segment(key);
    atomos::LockModeGuard g(s.mu);
    return s.map.put(key, value);
  }

  std::optional<V> remove(const K& key) override {
    Segment& s = segment(key);
    atomos::LockModeGuard g(s.mu);
    return s.map.remove(key);
  }

  /// Sums per-segment sizes (locking segment by segment, as Java does; the
  /// result is a moving estimate under concurrency).
  long size() const override {
    long total = 0;
    for (auto& s : segs_) {
      atomos::LockModeGuard g(s->mu);
      total += s->map.size();
    }
    return total;
  }

  std::unique_ptr<MapIterator<K, V>> iterator() const override {
    return std::make_unique<Iter>(this);
  }

 private:
  struct Segment {
    explicit Segment(std::size_t buckets) : map(buckets) {}
    atomos::Mutex mu;
    HashMap<K, V, Hash, Eq> map;  // per-segment size field lives in here
  };

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  Segment& segment(const K& key) const {
    // Spread the high bits so segment and in-segment bucket indices differ.
    const std::size_t h = hash_(key);
    const std::size_t spread = h ^ (h >> 16);
    return *segs_[(spread >> 4) & (nsegments_ - 1)];
  }

  class Iter final : public MapIterator<K, V> {
   public:
    explicit Iter(const ConcurrentHashMap* m) : m_(m) { advance(); }

    bool has_next() override { return cur_ != nullptr && cur_->has_next(); }

    std::pair<K, V> next() override {
      auto out = cur_->next();
      if (!cur_->has_next()) advance();
      return out;
    }

   private:
    void advance() {
      cur_.reset();
      while (seg_ < m_->nsegments_) {
        cur_ = m_->segs_[seg_++]->map.iterator();
        if (cur_->has_next()) return;
      }
      cur_.reset();
    }
    const ConcurrentHashMap* m_;
    std::size_t seg_ = 0;
    std::unique_ptr<MapIterator<K, V>> cur_;
  };

  Hash hash_;
  const std::size_t nsegments_;
  std::vector<std::unique_ptr<Segment>> segs_;
};

}  // namespace jstd
