// Simulation statistics: fixed per-CPU counters.
#pragma once

#include <cstdint>
#include <vector>

namespace sim {

/// Counters kept for each virtual CPU.
struct CpuStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t commits = 0;            ///< top-level transaction commits
  std::uint64_t open_commits = 0;       ///< open-nested child commits
  std::uint64_t violations = 0;         ///< top-level (parent) violations
  std::uint64_t nested_violations = 0;  ///< violations of open-nested transactions
  std::uint64_t semantic_violations = 0;///< program-directed aborts received
  std::uint64_t lost_cycles = 0;        ///< cycles discarded by rollbacks
  std::uint64_t lock_spin_cycles = 0;   ///< cycles spent spinning on sim::Mutex
};

/// Whole-simulation statistics.
class Stats {
 public:
  explicit Stats(int num_cpus) : per_cpu_(static_cast<std::size_t>(num_cpus)) {}

  CpuStats& cpu(int id) { return per_cpu_[static_cast<std::size_t>(id)]; }
  const std::vector<CpuStats>& per_cpu() const { return per_cpu_; }

  /// Aggregates a field over all CPUs, e.g. total(&CpuStats::violations).
  template <class T>
  std::uint64_t total(T CpuStats::* field) const {
    std::uint64_t sum = 0;
    for (const auto& c : per_cpu_) sum += static_cast<std::uint64_t>(c.*field);
    return sum;
  }

  /// Every counter summed over all CPUs in one pass (the harness driver
  /// collects a whole RunResult from this instead of one total() per field).
  CpuStats summed() const {
    CpuStats s;
    for (const auto& c : per_cpu_) {
      s.loads += c.loads;
      s.stores += c.stores;
      s.l1_misses += c.l1_misses;
      s.commits += c.commits;
      s.open_commits += c.open_commits;
      s.violations += c.violations;
      s.nested_violations += c.nested_violations;
      s.semantic_violations += c.semantic_violations;
      s.lost_cycles += c.lost_cycles;
      s.lock_spin_cycles += c.lock_spin_cycles;
    }
    return s;
  }

 private:
  std::vector<CpuStats> per_cpu_;
};

}  // namespace sim
