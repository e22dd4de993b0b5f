// GOOD: a jstd-style node type following every rule — nothing in this file
// may be flagged.
#pragma once

#include "tm/runtime.h"
#include "tm/shared.h"

namespace jstd {

template <class K, class V>
class CleanList {
 public:
  /// Hot single-cell metadata lives in the line-isolated meta arena.
  CleanList()
      : size_(0, sim::kMetaCell, "CleanList.size"),
        head_(nullptr, sim::kMetaCell, "CleanList.head") {}

  long size() const { return size_.get(); }

  ~CleanList() {
    Node* n = head_.unsafe_peek();  // teardown reads the committed value
    (void)n;
  }

 private:
  struct Node {
    atomos::Shared<K> key;
    atomos::Shared<V> val;
    atomos::Shared<Node*> next;
    const int height = 1;
  };

  class Iter {
    Node* n_ = nullptr;  // iterator state is transaction-local: exempt
    int pos_ = 0;
  };

  Hash hash_;  // stateless functor: exempt (not a primitive, not a pointer)
  atomos::Shared<long> size_;
  atomos::Shared<Node*> head_;
};

}  // namespace jstd
