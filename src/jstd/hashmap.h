// jstd::HashMap — a java.util.HashMap-shaped chained hash table over
// transactional cells.
//
// The layout is deliberately faithful to the classic implementation the
// paper analyses: one bucket array, singly linked collision chains, and a
// single `size` field maintained for java.util's default load factor, 0.75.
// Under Atomos-style execution this is exactly the structure whose `size`
// field and bucket chains create the unnecessary memory-level dependencies
// of Figure 1; the TransactionalMap wrapper exists to eliminate them.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>

#include "jstd/interfaces.h"
#include "tm/runtime.h"
#include "tm/shared.h"

namespace jstd {

template <class K, class V, class Hash = std::hash<K>, class Eq = std::equal_to<K>>
class HashMap final : public Map<K, V> {
 public:
  /// `initial_buckets` should exceed the expected population / 0.75 when
  /// resize-under-transaction is not part of the experiment.
  /// `size_label` / `table_label` name the contended metadata cells in TAPE
  /// profiles and txtrace conflict reports (e.g. "historyTable.size" /
  /// "historyTable.table" for the fig4 map).  Both cells are read by every
  /// operation, so they live line-isolated in the metadata arena
  /// (sim::kMetaCell) — never co-resident with counters or element cells.
  explicit HashMap(std::size_t initial_buckets = 16,
                   const char* size_label = "HashMap.size",
                   const char* table_label = "HashMap.table")
      : size_(0, sim::kMetaCell, size_label),
        table_(new Table(round_up_pow2(initial_buckets)), sim::kMetaCell, table_label) {}

  ~HashMap() override {
    Table* t = table_.unsafe_peek();
    for (std::size_t i = 0; i < t->nbuckets; ++i) {
      Node* n = t->buckets[i].head.unsafe_peek();
      while (n != nullptr) {
        Node* next = n->next.unsafe_peek();
        delete n;
        n = next;
      }
    }
    delete t;
  }

  HashMap(const HashMap&) = delete;
  HashMap& operator=(const HashMap&) = delete;

  std::optional<V> get(const K& key) const override {
    const std::size_t h = hash_(key);
    Table* t = table_.get();
    for (Node* n = t->bucket(h).get(); n != nullptr; n = n->next.get()) {
      if (n->hash == h && eq_(n->key.get(), key)) return n->val.get();
    }
    return std::nullopt;
  }

  bool contains_key(const K& key) const override { return get(key).has_value(); }

  std::optional<V> put(const K& key, const V& value) override {
    const std::size_t h = hash_(key);
    Table* t = table_.get();
    atomos::Shared<Node*>& head = t->bucket(h);
    for (Node* n = head.get(); n != nullptr; n = n->next.get()) {
      if (n->hash == h && eq_(n->key.get(), key)) {
        V old = n->val.get();
        n->val.set(value);
        return old;
      }
    }
    Node* fresh = atomos::tx_new<Node>(h, key, value, head.get());
    head.set(fresh);
    const long new_size = size_.get() + 1;  // the paper's contended field
    size_.set(new_size);
    if (static_cast<float>(new_size) > kLoadFactor * static_cast<float>(t->nbuckets)) {
      resize(t);
    }
    return std::nullopt;
  }

  std::optional<V> remove(const K& key) override {
    const std::size_t h = hash_(key);
    Table* t = table_.get();
    atomos::Shared<Node*>& head = t->bucket(h);
    Node* prev = nullptr;
    for (Node* n = head.get(); n != nullptr; prev = n, n = n->next.get()) {
      if (n->hash == h && eq_(n->key.get(), key)) {
        V old = n->val.get();
        if (prev == nullptr) {
          head.set(n->next.get());
        } else {
          prev->next.set(n->next.get());
        }
        atomos::tx_delete(n);
        size_.set(size_.get() - 1);
        return old;
      }
    }
    return std::nullopt;
  }

  long size() const override { return size_.get(); }

  std::unique_ptr<MapIterator<K, V>> iterator() const override {
    return std::make_unique<Iter>(table_.get());
  }

  /// Current bucket-array capacity (for tests of resize behaviour).
  std::size_t bucket_count() const { return table_.unsafe_peek()->nbuckets; }

 private:
  struct Node {
    Node(std::size_t h, const K& k, const V& v, Node* nxt)
        : hash(h), key(k, sim::kDataCell), val(v, sim::kDataCell), next(nxt, sim::kDataCell) {}
    const std::size_t hash;     // immutable: cached full hash
    atomos::Shared<K> key;      // immutable after construction
    atomos::Shared<V> val;
    atomos::Shared<Node*> next;
  };

  struct Bucket {  // a chain head; a Table builds its buckets in index order
    atomos::Shared<Node*> head{nullptr, sim::kDataCell};
  };

  struct Table {
    explicit Table(std::size_t n) : nbuckets(n), buckets(std::make_unique<Bucket[]>(n)) {}
    atomos::Shared<Node*>& bucket(std::size_t hash) const {
      return buckets[hash & (nbuckets - 1)].head;
    }
    const std::size_t nbuckets;
    std::unique_ptr<Bucket[]> buckets;
  };

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  void resize(Table* old) {
    Table* bigger = atomos::tx_new<Table>(old->nbuckets * 2);
    for (std::size_t i = 0; i < old->nbuckets; ++i) {
      for (Node* n = old->buckets[i].head.get(); n != nullptr;) {
        Node* next = n->next.get();
        atomos::Shared<Node*>& head = bigger->bucket(n->hash);
        n->next.set(head.get());
        head.set(n);
        n = next;
      }
    }
    table_.set(bigger);
    atomos::tx_delete(old);
  }

  class Iter final : public MapIterator<K, V> {
   public:
    explicit Iter(Table* t) : t_(t) { advance(); }

    bool has_next() override { return n_ != nullptr; }

    std::pair<K, V> next() override {
      std::pair<K, V> out{n_->key.get(), n_->val.get()};
      n_ = n_->next.get();
      advance();
      return out;
    }

   private:
    void advance() {
      while (n_ == nullptr && bucket_ < t_->nbuckets) {
        n_ = t_->buckets[bucket_++].head.get();
      }
    }
    Table* t_;
    std::size_t bucket_ = 0;
    Node* n_ = nullptr;
  };

  static constexpr float kLoadFactor = 0.75F;  // resize past this many entries per bucket

  Hash hash_;
  Eq eq_;
  atomos::Shared<long> size_;
  atomos::Shared<Table*> table_;
};

}  // namespace jstd
