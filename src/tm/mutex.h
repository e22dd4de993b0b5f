// sim-timed mutual exclusion for lock-mode ("Java") runs.
//
// Models a test-and-test-and-set spinlock with a bounded spin phase followed
// by FIFO parking — the flavour of adaptive monitor a JVM provides.  The
// lock word has a simulated (virtual) address, so acquiring a contended lock
// pays MESI line ping-pong on the simulated bus, and the holder's critical
// section serializes waiters in virtual time.
#pragma once

#include <cstdint>
#include <deque>

#include "sim/engine.h"
#include "sim/vaddr.h"

namespace atomos {

class Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Acquires the lock, spinning then parking.  Outside a simulation this
  /// is a no-op (setup code is single-threaded).
  void lock();

  /// Releases the lock, handing off to the oldest parked waiter if any.
  void unlock();

  /// True if the calling virtual CPU holds the lock.
  bool held_by_me() const;

 private:
  static constexpr int kSpinsBeforePark = 16;

  int owner_ = -1;                 // virtual CPU holding the lock
  std::deque<int> waiters_;        // parked CPUs, FIFO
  // Timed address of the lock word: lock-arena, line-isolated, so lock
  // ping-pong never false-shares with data or with another lock.
  std::uintptr_t vaddr_ = sim::va_alloc(8, sim::kLockWord);
};

/// RAII guard (CP.20: use RAII, never plain lock()/unlock()).
class LockGuard {
 public:
  explicit LockGuard(Mutex& m) : m_(m) { m_.lock(); }
  ~LockGuard() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

/// A LockGuard that locks only in Mode::kLock on a worker, for code shared
/// by lock-based and transactional runs: under Mode::kTcc the enclosing
/// transaction provides the atomicity, and setup code runs single-threaded.
class LockModeGuard {
 public:
  explicit LockModeGuard(Mutex& m)
      : m_(sim::Engine::in_worker() && sim::Engine::get().config().mode == sim::Mode::kLock
               ? &m
               : nullptr) {
    if (m_ != nullptr) m_->lock();
  }
  ~LockModeGuard() {
    if (m_ != nullptr) m_->unlock();
  }
  LockModeGuard(const LockModeGuard&) = delete;
  LockModeGuard& operator=(const LockModeGuard&) = delete;

 private:
  Mutex* m_;
};

}  // namespace atomos
