// Contention management policies (paper Section 5.1): how long an aborted
// transaction backs off before retrying.  The TM is committer-wins (TCC), so
// the contention manager only shapes retry pacing; it cannot deadlock.
#pragma once

#include <algorithm>
#include <cstdint>

namespace atomos {

/// Strategy interface: cycles of backoff before retry `attempt` on `cpu`.
class ContentionManager {
 public:
  virtual ~ContentionManager() = default;
  virtual std::uint64_t backoff_cycles(int cpu, int attempt) = 0;
};

/// Exponential backoff with deterministic per-CPU jitter (the default).
class PoliteBackoff final : public ContentionManager {
 public:
  std::uint64_t backoff_cycles(int cpu, int attempt) override {
    const int shift = std::min(attempt, kMaxShift);
    // xorshift-style deterministic jitter so CPUs desynchronize.
    std::uint64_t x = state_ * 6364136223846793005ULL + 1442695040888963407ULL +
                      static_cast<std::uint64_t>(cpu);
    state_ = x;
    const std::uint64_t window = kBase << shift;
    return window + (x >> 33) % (window + 1);
  }

 private:
  static constexpr std::uint64_t kBase = 32;  ///< window of the first retry
  static constexpr int kMaxShift = 8;         ///< the window stops doubling here
  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

/// Retry immediately (useful to demonstrate livelock-prone configurations).
class AggressiveRetry final : public ContentionManager {
 public:
  std::uint64_t backoff_cycles(int, int) override { return 0; }
};

/// Karma-flavoured: repeatedly aborted transactions back off *less* so they
/// eventually win against shorter transactions (priority via persistence).
///
/// The window is jittered per CPU like PoliteBackoff: the pure
/// `16 << max(0, 6-attempt)` formula ignored `cpu`, so equally-aborted CPUs
/// computed identical backoffs, restarted in deterministic lockstep, and
/// re-collided on every retry (see ContentionTest.KarmaLockstepCollides).
class KarmaBackoff final : public ContentionManager {
 public:
  std::uint64_t backoff_cycles(int cpu, int attempt) override {
    const int shift = std::max(0, 6 - attempt);  // shrink with each defeat
    const std::uint64_t window = 16ULL << shift;
    std::uint64_t x = state_ * 6364136223846793005ULL + 1442695040888963407ULL +
                      static_cast<std::uint64_t>(cpu);
    state_ = x;
    return window + (x >> 33) % (window + 1);
  }

 private:
  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

}  // namespace atomos
