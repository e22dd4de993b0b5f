// Transaction chopping over the Atomos runtime (tm/runtime.h).
//
// A long transaction is declared as rank-ordered *pieces*; each piece
// commits as its own top-level transaction, so the conflict window of the
// whole operation shrinks from "the entire transaction, including think
// time" to "one piece at a time".  This is the ChoppedTransaction idiom:
// open nesting (paper S4) removes a *collection operation* from the
// parent's footprint, chopping removes the *parent itself* — the two
// compose, and fig6 measures the difference under high contention.
//
//   chopped()
//       .piece("district", [&] { ...first piece... },
//              /*compensate=*/[&] { ...undo its committed effects... })
//       .piece("stock", [&] { ...second piece... }, no_compensation)
//       .run();
//
// Ranks are the declaration order (an explicit strictly-increasing rank
// overload exists for clarity at call sites).  Correctness contract, as in
// the chopping literature: the programmer asserts the chopping is valid —
// every schedule of pieces from concurrent chops is equivalent to some
// serial schedule of the original transactions (no SC-cycle).  The runtime
// *checks the cheap dynamic part*: after each piece commits, its read/write
// lines become the chop's forward-dependency footprint, and any foreign
// commit touching that footprint before the chop finishes marks the chop
// broken.  What happens then is the policy:
//
//  * kRanked     — the break is counted (Runtime::chop_stats) and execution
//                  continues: the declared rank order vouches for
//                  serializability, the counter tells you how often you
//                  relied on it.  This is the throughput mode.
//  * kValidated  — the already-committed pieces are *compensated* in
//                  reverse order (each compensation runs as a detached open
//                  transaction inside one TXCC_CHECKED abort/compensation
//                  scope — the same machinery abort handlers use, so
//                  kDoubleCompensation auditing applies) and the chop
//                  restarts from its first piece.
//
// A piece body that throws a user exception triggers the same reverse
// compensation sweep before the exception propagates: the chop as a whole
// is all-or-nothing at the semantic level, even though its pieces commit
// physically one at a time.
//
// Every piece names its compensation, as commit handlers name their abort
// side (Runtime::on_commit): a callable that undoes the piece's committed
// effects, or no_compensation for a final or read-only piece.  A piece that
// mutates a collection without one cannot be undone if a later piece (or
// policy) needs it, so the choice is part of the call's type.
#pragma once

#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tm/runtime.h"

namespace atomos {

enum class ChopPolicy {
  kRanked,     ///< count forward-dependency breaks, never re-run
  kValidated,  ///< compensate committed pieces and restart on a break
};

class Chop {
 public:
  explicit Chop(ChopPolicy policy = ChopPolicy::kRanked) : policy_(policy) {}

  /// Appends a piece at the next rank.  `compensate` must undo the piece's
  /// committed effects when run as its own transaction later, or be
  /// no_compensation, which registers nothing.
  template <AbortSide A>
  Chop& piece(const char* name, std::function<void()> body, A&& compensate) {
    const int rank = pieces_.empty() ? 0 : pieces_.back().rank + 1;
    return piece(rank, name, std::move(body), std::forward<A>(compensate));
  }

  /// Same, with an explicit rank; ranks must be strictly increasing.
  template <AbortSide A>
  Chop& piece(int rank, const char* name, std::function<void()> body, A&& compensate) {
    if (!pieces_.empty() && rank <= pieces_.back().rank)
      throw std::logic_error("Chop: piece ranks must be strictly increasing");
    std::function<void()> comp;
    if constexpr (kCompensates<A>) comp = std::forward<A>(compensate);
    pieces_.push_back(Piece{name, rank, std::move(body), std::move(comp)});
    return *this;
  }

  /// Executes the pieces in rank order.  Outside a simulation worker (or in
  /// Mode::kLock) the bodies run plainly; inside an enclosing transaction
  /// the pieces degrade to closed-nested frames of it (the chop loses its
  /// early commits but keeps its semantics).
  void run();

 private:
  struct Piece {
    const char* name;
    int rank;
    std::function<void()> body;
    std::function<void()> compensate;  // empty for no_compensation
  };

  ChopPolicy policy_;
  std::vector<Piece> pieces_;
};

/// Entry point mirroring atomically()/open_atomically(): builds a Chop.
inline Chop chopped(ChopPolicy policy = ChopPolicy::kRanked) {
  return Chop(policy);
}

}  // namespace atomos
