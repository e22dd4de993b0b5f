// Transaction chopping over the Atomos runtime (tm/runtime.h).
//
// A long transaction is declared as ordered *pieces*; each piece
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
// Pieces run in declaration order.  Correctness contract, as in the
// chopping literature: the programmer asserts the chopping is valid —
// every schedule of pieces from concurrent chops is equivalent to some
// serial schedule of the original transactions (no SC-cycle).  The runtime
// *counts the cheap dynamic part*: after each piece commits, its read/write
// lines become the chop's forward-dependency footprint, and any foreign
// commit touching that footprint before the chop finishes is a break,
// counted in Runtime::chop_stats.  Execution continues: the declared order
// vouches for serializability, the counter tells you how often you relied
// on it.
//
// A piece body that throws a user exception compensates the committed
// pieces in reverse order (each compensation runs as a detached open
// transaction, the machinery abort handlers use) before the exception
// propagates: the chop as a whole is all-or-nothing at the semantic level,
// even though its pieces commit physically one at a time.
//
// Every piece names its compensation, as commit handlers name their abort
// side (Runtime::on_commit): a callable that undoes the piece's committed
// effects, or no_compensation for a final or read-only piece.  A piece that
// mutates a collection without one cannot be undone if a later piece
// throws, so the choice is part of the call's type.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "tm/runtime.h"

namespace atomos {

class Chop {
 public:
  /// Appends a piece after the ones declared so far.  `compensate` must
  /// undo the piece's committed effects when run as its own transaction
  /// later, or be no_compensation, which registers nothing.
  template <AbortSide A>
  Chop& piece(const char* name, std::function<void()> body, A&& compensate) {
    std::function<void()> comp;
    if constexpr (kCompensates<A>) comp = std::forward<A>(compensate);
    pieces_.push_back(Piece{name, std::move(body), std::move(comp)});
    return *this;
  }

  /// Executes the pieces in declaration order.  Outside a simulation worker
  /// (or in Mode::kLock) the bodies run plainly; inside an enclosing
  /// transaction the pieces run inline as part of it (the chop loses its
  /// early commits but keeps its semantics).
  void run();

 private:
  struct Piece {
    const char* name;
    std::function<void()> body;
    std::function<void()> compensate;  // empty for no_compensation
  };

  std::vector<Piece> pieces_;
};

/// Entry point mirroring atomically()/open_atomically(): builds a Chop.
inline Chop chopped() { return Chop(); }

}  // namespace atomos
