// jstd::TreeMap — a java.util.TreeMap-shaped red-black tree over
// transactional cells.
//
// Like its Java counterpart it keeps parent pointers (so iteration is a
// successor walk) and rebalances with rotations and recolourings on the path
// to the root.  Those internal writes are precisely the memory-level
// dependencies that stop a plain TreeMap scaling inside long transactions
// (paper Figure 2); TransactionalSortedMap wraps this class to remove them.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>

#include "jstd/interfaces.h"
#include "tm/runtime.h"
#include "tm/shared.h"

namespace jstd {

template <class K, class V, class Compare = std::less<K>>
class TreeMap final : public SortedMap<K, V> {
 public:
  /// `size_label`/`root_label` name the tree's contended fields in TAPE
  /// profiles and txtrace conflict reports (e.g. "orderTable.size").  Both
  /// metadata cells are line-isolated (sim::kMetaCell): every operation
  /// reads root_, so it must never false-share with counters or node cells.
  explicit TreeMap(Compare cmp = Compare(),
                   const char* size_label = "TreeMap.size",
                   const char* root_label = "TreeMap.root")
      : cmp_(cmp), size_(0, sim::kMetaCell, size_label),
        root_(nullptr, sim::kMetaCell, root_label),
        node_label_("TreeMap.node") {}

  ~TreeMap() override { destroy(root_.unsafe_peek()); }

  TreeMap(const TreeMap&) = delete;
  TreeMap& operator=(const TreeMap&) = delete;

  std::optional<V> get(const K& key) const override {
    Node* n = find(key);
    if (n == nullptr) return std::nullopt;
    return n->val.get();
  }

  bool contains_key(const K& key) const override { return find(key) != nullptr; }

  long size() const override { return size_.get(); }

  std::optional<V> put(const K& key, const V& value) override {
    Node* parent = nullptr;
    Node* n = root_.get();
    bool went_left = false;
    while (n != nullptr) {
      const K nk = n->key.get();
      if (cmp_(key, nk)) {
        parent = n;
        went_left = true;
        n = n->left.get();
      } else if (cmp_(nk, key)) {
        parent = n;
        went_left = false;
        n = n->right.get();
      } else {
        V old = n->val.get();
        n->val.set(value);
        return old;
      }
    }
    // Label node link cells only during setup population (host side): a
    // label is host state that an abort cannot roll back, so a labelled cell
    // built on a worker fiber throws (tm/shared.h).
    Node* fresh = atomos::tx_new<Node>(
        key, value, parent, sim::Engine::in_worker() ? nullptr : node_label_);
    if (parent == nullptr) {
      root_.set(fresh);
    } else if (went_left) {
      parent->left.set(fresh);
    } else {
      parent->right.set(fresh);
    }
    insert_fixup(fresh);
    size_.set(size_.get() + 1);
    return std::nullopt;
  }

  std::optional<V> remove(const K& key) override {
    Node* z = find(key);
    if (z == nullptr) return std::nullopt;
    V old = z->val.get();
    remove_node(z);
    size_.set(size_.get() - 1);
    return old;
  }

  std::optional<K> first_key() const override {
    Node* n = minimum(root_.get());
    if (n == nullptr) return std::nullopt;
    return n->key.get();
  }

  std::optional<K> last_key() const override {
    Node* n = root_.get();
    if (n == nullptr) return std::nullopt;
    while (n->right.get() != nullptr) {
      Node* r = n->right.get();
      if (r == nullptr) break;  // doomed: see minimum()
      n = r;
    }
    return n->key.get();
  }

  std::optional<K> last_key_before(const K& key) const override {
    Node* n = root_.get();
    Node* best = nullptr;
    while (n != nullptr) {
      if (cmp_(n->key.get(), key)) {  // n.key < key: candidate, go right
        best = n;
        n = n->right.get();
      } else {
        n = n->left.get();
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->key.get();
  }

  std::unique_ptr<MapIterator<K, V>> iterator() const override {
    return range_iterator(std::nullopt, std::nullopt);
  }

  std::unique_ptr<MapIterator<K, V>> range_iterator(
      const std::optional<K>& from, const std::optional<K>& to) const override {
    Node* start = from.has_value() ? lower_bound(*from) : minimum(root_.get());
    return std::make_unique<Iter>(this, start, to);
  }

  // ---- white-box invariant checks (tests only; untimed raw access) ----

  /// Verifies every red-black + BST invariant; returns false on corruption.
  bool check_invariants() const {
    if (root_.unsafe_peek() != nullptr && root_.unsafe_peek()->red.unsafe_peek()) return false;
    long count = 0;
    int bh = -1;
    const bool ok = check_node(root_.unsafe_peek(), nullptr, nullptr, nullptr, 0, bh, count);
    return ok && count == size_.unsafe_peek();
  }

 private:
  struct Node {
    Node(const K& k, const V& v, Node* p, const char* label = nullptr)
        : key(k, sim::kDataCell), val(v, sim::kDataCell), parent(p, sim::kDataCell, label),
          left(nullptr, sim::kDataCell, label), right(nullptr, sim::kDataCell, label),
          red(true, sim::kDataCell, label) {}
    atomos::Shared<K> key;  // immutable after construction
    atomos::Shared<V> val;
    atomos::Shared<Node*> parent;
    atomos::Shared<Node*> left;
    atomos::Shared<Node*> right;
    atomos::Shared<bool> red;
  };

  // -- helpers reading through the transactional cells --

  Node* find(const K& key) const {
    Node* n = root_.get();
    while (n != nullptr) {
      const K nk = n->key.get();
      if (cmp_(key, nk)) {
        n = n->left.get();
      } else if (cmp_(nk, key)) {
        n = n->right.get();
      } else {
        return n;
      }
    }
    return nullptr;
  }

  Node* lower_bound(const K& key) const {  // smallest node with node.key >= key
    Node* n = root_.get();
    Node* best = nullptr;
    while (n != nullptr) {
      if (cmp_(n->key.get(), key)) {
        n = n->right.get();
      } else {
        best = n;
        n = n->left.get();
      }
    }
    return best;
  }

  /// Each child link is read twice (test, then follow), so a consistent
  /// execution's simulated accesses stay as they always were.  The second
  /// read can still come back null: its memory access may yield across a
  /// concurrent commit that unlinks the child.  That commit has flagged this
  /// transaction, so stop on the null and let the next read unwind it.
  static Node* minimum(Node* n) {
    if (n == nullptr) return nullptr;
    while (n->left.get() != nullptr) {
      Node* l = n->left.get();
      if (l == nullptr) break;
      n = l;
    }
    return n;
  }

  static Node* successor(Node* n) {
    Node* r = n->right.get();
    if (r != nullptr) return minimum(r);
    Node* p = n->parent.get();
    while (p != nullptr && p->right.get() == n) {
      n = p;
      p = p->parent.get();
    }
    return p;
  }

  static bool is_red(Node* n) { return n != nullptr && n->red.get(); }

  void rotate_left(Node* x) {
    Node* y = x->right.get();
    Node* yl = y->left.get();
    x->right.set(yl);
    if (yl != nullptr) yl->parent.set(x);
    Node* xp = x->parent.get();
    y->parent.set(xp);
    if (xp == nullptr) {
      root_.set(y);
    } else if (xp->left.get() == x) {
      xp->left.set(y);
    } else {
      xp->right.set(y);
    }
    y->left.set(x);
    x->parent.set(y);
  }

  void rotate_right(Node* x) {
    Node* y = x->left.get();
    Node* yr = y->right.get();
    x->left.set(yr);
    if (yr != nullptr) yr->parent.set(x);
    Node* xp = x->parent.get();
    y->parent.set(xp);
    if (xp == nullptr) {
      root_.set(y);
    } else if (xp->right.get() == x) {
      xp->right.set(y);
    } else {
      xp->left.set(y);
    }
    y->right.set(x);
    x->parent.set(y);
  }

  void insert_fixup(Node* z) {
    while (is_red(z->parent.get())) {
      Node* p = z->parent.get();
      Node* g = p->parent.get();  // exists: p is red, so p is not the root
      if (g->left.get() == p) {
        Node* uncle = g->right.get();
        if (is_red(uncle)) {
          p->red.set(false);
          uncle->red.set(false);
          g->red.set(true);
          z = g;
        } else {
          if (p->right.get() == z) {
            z = p;
            rotate_left(z);
            p = z->parent.get();
            g = p->parent.get();
          }
          p->red.set(false);
          g->red.set(true);
          rotate_right(g);
        }
      } else {
        Node* uncle = g->left.get();
        if (is_red(uncle)) {
          p->red.set(false);
          uncle->red.set(false);
          g->red.set(true);
          z = g;
        } else {
          if (p->left.get() == z) {
            z = p;
            rotate_right(z);
            p = z->parent.get();
            g = p->parent.get();
          }
          p->red.set(false);
          g->red.set(true);
          rotate_left(g);
        }
      }
    }
    root_.get()->red.set(false);
  }

  /// Replaces u (child of u.parent) by v, updating v's parent link.
  void transplant(Node* u, Node* v) {
    Node* up = u->parent.get();
    if (up == nullptr) {
      root_.set(v);
    } else if (up->left.get() == u) {
      up->left.set(v);
    } else {
      up->right.set(v);
    }
    if (v != nullptr) v->parent.set(up);
  }

  void remove_node(Node* z) {
    // java.util.TreeMap style: a two-child node adopts its successor's
    // key/value, then the successor (<= 1 child) is spliced out.
    if (z->left.get() != nullptr && z->right.get() != nullptr) {
      Node* s = minimum(z->right.get());
      if (s == nullptr) return;  // doomed: z's right link changed (minimum())
      z->key.set(s->key.get());
      z->val.set(s->val.get());
      z = s;
    }
    Node* child = z->left.get() != nullptr ? z->left.get() : z->right.get();
    Node* parent = z->parent.get();
    const bool was_black = !z->red.get();
    transplant(z, child);
    if (was_black) remove_fixup(child, parent);
    atomos::tx_delete(z);
  }

  /// CLRS delete-fixup, null-leaf variant: x may be null, so its parent is
  /// threaded explicitly.
  void remove_fixup(Node* x, Node* parent) {
    while (x != root_.get() && !is_red(x)) {
      if (parent == nullptr) break;  // x is the root
      if (parent->left.get() == x) {
        Node* w = parent->right.get();
        if (is_red(w)) {
          w->red.set(false);
          parent->red.set(true);
          rotate_left(parent);
          w = parent->right.get();
        }
        if (!is_red(w->left.get()) && !is_red(w->right.get())) {
          w->red.set(true);
          x = parent;
          parent = x->parent.get();
        } else {
          if (!is_red(w->right.get())) {
            w->left.get()->red.set(false);
            w->red.set(true);
            rotate_right(w);
            w = parent->right.get();
          }
          w->red.set(parent->red.get());
          parent->red.set(false);
          w->right.get()->red.set(false);
          rotate_left(parent);
          x = root_.get();
          parent = nullptr;
        }
      } else {
        Node* w = parent->left.get();
        if (is_red(w)) {
          w->red.set(false);
          parent->red.set(true);
          rotate_right(parent);
          w = parent->left.get();
        }
        if (!is_red(w->right.get()) && !is_red(w->left.get())) {
          w->red.set(true);
          x = parent;
          parent = x->parent.get();
        } else {
          if (!is_red(w->left.get())) {
            w->right.get()->red.set(false);
            w->red.set(true);
            rotate_left(w);
            w = parent->left.get();
          }
          w->red.set(parent->red.get());
          parent->red.set(false);
          w->left.get()->red.set(false);
          rotate_right(parent);
          x = root_.get();
          parent = nullptr;
        }
      }
    }
    if (x != nullptr) x->red.set(false);
  }

  // -- iterator --

  class Iter final : public MapIterator<K, V> {
   public:
    Iter(const TreeMap* m, Node* start, std::optional<K> to)
        : m_(m), n_(start), to_(std::move(to)) {
      clamp();
    }

    bool has_next() override { return n_ != nullptr; }

    std::pair<K, V> next() override {
      std::pair<K, V> out{n_->key.get(), n_->val.get()};
      n_ = successor(n_);
      clamp();
      return out;
    }

   private:
    void clamp() {
      if (n_ != nullptr && to_.has_value() && !m_->cmp_(n_->key.get(), *to_)) n_ = nullptr;
    }
    const TreeMap* m_;
    Node* n_;
    std::optional<K> to_;
  };

  // -- teardown / invariant helpers (raw access) --

  void destroy(Node* n) {
    if (n == nullptr) return;
    destroy(n->left.unsafe_peek());
    destroy(n->right.unsafe_peek());
    delete n;
  }

  bool check_node(Node* n, Node* parent, const K* lo, const K* hi, int black_depth,
                  int& leaf_black_depth, long& count) const {
    if (n == nullptr) {
      if (leaf_black_depth < 0) leaf_black_depth = black_depth;
      return leaf_black_depth == black_depth;
    }
    if (n->parent.unsafe_peek() != parent) return false;
    const K k = n->key.unsafe_peek();
    if (lo != nullptr && !cmp_(*lo, k)) return false;
    if (hi != nullptr && !cmp_(k, *hi)) return false;
    const bool red = n->red.unsafe_peek();
    if (red && parent != nullptr && parent->red.unsafe_peek()) return false;  // red-red
    ++count;
    const int bd = black_depth + (red ? 0 : 1);
    return check_node(n->left.unsafe_peek(), n, lo, &k, bd, leaf_black_depth, count) &&
           check_node(n->right.unsafe_peek(), n, &k, hi, bd, leaf_black_depth, count);
  }

  Compare cmp_;
  atomos::Shared<long> size_;
  atomos::Shared<Node*> root_;
  const char* node_label_;  // applied to link cells of setup-created nodes
};

}  // namespace jstd
