// txlint — static lint for the repo's transactional-memory discipline.
//
// The TM library rests on invariants the C++ compiler cannot check (they are
// stated as prose in src/tm/runtime.h and src/tm/shared.h):
//
//   * every mutable field shared between virtual CPUs lives in a Shared<T>;
//   * the internal `Violated` unwind is never swallowed by a catch block;
//   * a trace hook neither allocates nor re-enters the TM runtime;
//   * the per-access data-path headers use no node-based std:: container;
//   * a transaction body never captures a collection read by value (a
//     retry would replay the stale snapshot).
//
// What the compiler or the call itself can check is not linted: a commit
// handler's abort side and a cell's memory class are required arguments, a
// Shared cannot be copied, and a cell refuses a raw peek or a profile label
// on a worker fiber (std::logic_error).
//
// txlint is a heuristic, token-level scanner: it strips comments/strings,
// tracks namespace/class/function structure, and flags violations of each
// rule.  False positives are silenced in place with suppression comments:
//
//   // txlint: allow(rule-a, rule-b)      this line and the next
//   // txlint: begin-allow(rule)          ... region ...
//   // txlint: end-allow(rule)
//   // txlint: allow-file(rule)           whole file; `*` matches all rules
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace txlint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
};

/// The rules this build of txlint knows, in reporting order.
const std::vector<RuleInfo>& rules();

struct Options {
  /// When non-empty, only these rule names run.
  std::vector<std::string> only_rules;
};

/// Scans one translation unit held in memory.  `path` is used only for
/// labeling findings.
std::vector<Finding> scan_source(const std::string& path, std::string_view content,
                                 const Options& opts = {});

}  // namespace txlint
