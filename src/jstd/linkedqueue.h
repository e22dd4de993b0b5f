// jstd::LinkedQueue — a linked FIFO queue over transactional cells, shaped
// like the Michael-Scott queue underlying ConcurrentLinkedQueue (a dummy
// head node, head/tail pointers).  Atomicity comes from the enclosing
// transaction, not from CAS loops.  TransactionalQueue wraps this class.
#pragma once

#include <optional>

#include "jstd/interfaces.h"
#include "tm/runtime.h"
#include "tm/shared.h"

namespace jstd {

template <class T>
class LinkedQueue final : public Queue<T> {
 public:
  LinkedQueue()
      : head_(nullptr, sim::kMetaCell, "LinkedQueue.head"),
        tail_(nullptr, sim::kMetaCell, "LinkedQueue.tail"),
        size_(0, sim::kMetaCell, "LinkedQueue.size") {
    Node* dummy = new Node(T{});
    head_ = dummy;
    tail_ = dummy;
  }

  ~LinkedQueue() override {
    Node* n = head_.unsafe_peek();
    while (n != nullptr) {
      Node* next = n->next.unsafe_peek();
      delete n;
      n = next;
    }
  }

  LinkedQueue(const LinkedQueue&) = delete;
  LinkedQueue& operator=(const LinkedQueue&) = delete;

  void put(const T& item) override {
    Node* fresh = atomos::tx_new<Node>(item);
    Node* t = tail_.get();
    t->next.set(fresh);
    tail_.set(fresh);
    size_.set(size_.get() + 1);
  }

  std::optional<T> poll() override {
    Node* h = head_.get();
    Node* first = h->next.get();
    if (first == nullptr) return std::nullopt;
    T item = first->item.get();
    head_.set(first);  // `first` becomes the new dummy
    atomos::tx_delete(h);
    size_.set(size_.get() - 1);
    return item;
  }

  std::optional<T> peek() const override {
    Node* first = head_.get()->next.get();
    if (first == nullptr) return std::nullopt;
    return first->item.get();
  }

  long size() const override { return size_.get(); }

 private:
  struct Node {
    explicit Node(const T& v) : item(v, sim::kDataCell), next(nullptr, sim::kDataCell) {}
    atomos::Shared<T> item;
    atomos::Shared<Node*> next;
  };

  // Queue metadata: every put/poll reads head_ or tail_, so all three cells
  // are line-isolated in the metadata arena.
  atomos::Shared<Node*> head_;  // dummy node
  atomos::Shared<Node*> tail_;
  atomos::Shared<long> size_;
};

}  // namespace jstd
