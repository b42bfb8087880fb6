//===- analysis/dataflow/engine.h - Worklist dataflow over the CFG --------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one fixpoint loop of the static-analysis layer: a generic
/// worklist solver over the lowered program (analysis/cfg.h),
/// parameterised by an abstract domain. Every flow-sensitive pass in
/// the codebase — value-range safety (interval.h), definite
/// initialisation and marker discipline (analyses.h, lint.cpp), dead
/// code — is an instance of solve(); the timing pass shares the
/// engine's other driver, the bounded path walker (path_walk.h).
///
/// A Domain D provides:
///
///   using State = ...;                       // join-semilattice element
///   State bottom(const Cfg &) const;         // the unreached state
///   State boundary(const Cfg &) const;       // state at Entry (forward)
///                                            // resp. Exit (backward)
///   bool  join(State &Into, const State &S) const;   // true iff changed
///   void  transfer(const Cfg &, NodeId, const State &In,
///                  State &Out) const;
///
/// and optionally (detected via requires-expressions):
///
///   // Per-edge refinement, e.g. branch-condition narrowing: writes
///   // into Edge what the edge From -> To carries when From's
///   // out-state is Out. An unreached Edge marks the edge infeasible.
///   void  transferEdge(const Cfg &, NodeId From, NodeId To,
///                      const State &Out, State &Edge) const;
///   // Extrapolation at loop heads; defaults to join (fine for finite
///   // lattices, required for infinite ones like intervals).
///   bool  widen(State &Into, const State &S) const;
///
/// States are written in place. Out and Edge are caller-owned and hold
/// whatever was last written to them, so transfer and transferEdge
/// write every field of their result, assigning into its storage
/// rather than building a fresh state; the solver keeps its scratch
/// states across iterations and resets them by assigning bottom, so a
/// visit allocates nothing once the states have their size. The
/// payload of an unreached state is never read (join and widen skip an
/// unreached source, and the reporting sweeps skip unreached nodes),
/// so an unreached result need only say that it is unreached. The
/// range and init states (interval.h, analyses.h) keep up to 8
/// intervals and 2 bit words inline (support/small_vec.h), so on
/// programs within the default machine's register file their storage
/// is the solution's own arrays, with no heap block per node.
///
/// Iteration is a worklist ordered by sweep position (reverse
/// post-order forward, post-order backward): the sweep-earliest dirty
/// node is always processed next, and a change requeues only the
/// nodes that consume it. The worklist is a bit set over sweep
/// positions with a cursor at its lowest possibly non-zero word, so a
/// pop is a scan to the first set bit and a requeue sets one bit. The
/// extraction order is a pure function of the CFG — no hashing, no
/// insertion-order dependence — so states, and every diagnostic
/// derived from them, are byte-stable across runs and thread counts;
/// unlike full round-robin sweeps, a program of k independent loops
/// costs O(k) head iterations total, not O(k) full passes over the
/// whole graph (bench/analysis_cost measures this on generated loop
/// chains). After SolveOptions::WidenAfter changes of a
/// loop head's in-state, the flows arriving over the head's own back
/// edges are widened instead of joined (forward flows stay precise —
/// they stabilise once enclosing heads do), which caps the chain
/// height climbed at heads and guarantees termination on
/// infinite-height domains over the reducible CFGs the AST lowers to.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ANALYSIS_DATAFLOW_ENGINE_H
#define RPROSA_ANALYSIS_DATAFLOW_ENGINE_H

#include "analysis/cfg.h"

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

namespace rprosa::analysis::dataflow {

/// The wide integer the numeric domains (interval, zone, witness) use
/// to compute int64 bound arithmetic without overflow before clamping.
/// __extension__ keeps -Wpedantic quiet; GCC and Clang both provide it.
__extension__ typedef __int128 I128;

enum class Direction : std::uint8_t { Forward, Backward };

/// Precomputed iteration structure of one CFG: reverse post-order,
/// predecessor lists, loop heads (back-edge targets of the depth-first
/// walk, including self-loops), and graph reachability from Entry.
/// Deterministic: derived only from node ids and the fixed successor
/// order (Succ, then FalseSucc).
struct CfgOrder {
  /// Reverse post-order of the nodes reachable from Entry, followed by
  /// the unreachable nodes in ascending id order (they still get
  /// transfer applied, seeded from bottom, so their states exist).
  std::vector<NodeId> Rpo;
  /// Node -> its position in Rpo.
  std::vector<std::uint32_t> RpoIndex;
  /// The forward-edge predecessors of every node, back to back: node
  /// N's are PredIds[PredStart[N], PredStart[N + 1]), ascending.
  std::vector<std::uint32_t> PredStart;
  std::vector<NodeId> PredIds;
  /// True for targets of DFS back edges (loop heads; widening points).
  std::vector<bool> LoopHead;
  /// Reachable from Entry along forward edges.
  std::vector<bool> Reachable;

  /// The forward-edge predecessors of \p N, ascending.
  std::span<const NodeId> preds(NodeId N) const {
    return {PredIds.data() + PredStart[N], PredIds.data() + PredStart[N + 1]};
  }

  static CfgOrder compute(const Cfg &G);
};

struct SolveOptions {
  /// Joins that change a loop head's in-state before widening kicks in
  /// there. Small values converge faster; larger ones keep more
  /// precision on short counter loops.
  unsigned WidenAfter = 3;
  /// Work budget in whole-sweep equivalents: the solver gives up after
  /// MaxRounds * |nodes| transfer applications (a backstop; converging
  /// instances finish far earlier and non-converging ones are
  /// reported, not looped forever).
  unsigned MaxRounds = 4096;
};

/// The fixpoint: per-node states plus solver telemetry.
template <class State> struct Solution {
  std::vector<State> In;  ///< State before the node's effect.
  std::vector<State> Out; ///< State after the node's effect.
  std::uint64_t NodeVisits = 0; ///< Transfer applications (bench metric).
  bool Converged = false; ///< False only if MaxRounds was exhausted.
};

namespace detail {

template <class D, class State>
concept HasTransferEdge = requires(const D &Dom, const Cfg &G, NodeId N,
                                   const State &S, State &Edge) {
  Dom.transferEdge(G, N, N, S, Edge);
};

template <class D, class State>
concept HasWiden = requires(const D &Dom, State &Into, const State &S) {
  { Dom.widen(Into, S) } -> std::same_as<bool>;
};

} // namespace detail

/// Runs \p Dom to a fixpoint over \p G. \p Order must come from
/// CfgOrder::compute(G).
template <class Domain>
Solution<typename Domain::State>
solve(const Cfg &G, const Domain &Dom, const CfgOrder &Order,
      Direction Dir = Direction::Forward, SolveOptions Opts = {}) {
  using State = typename Domain::State;
  const std::size_t N = G.size();

  const State Bottom = Dom.bottom(G);
  Solution<State> Sol;
  Sol.In.assign(N, Bottom);
  Sol.Out.assign(N, Bottom);

  // The backward solver runs the same loop on the reversed graph: the
  // boundary sits at Exit, "predecessors" are forward successors, and
  // the sweep order is post-order (reverse of Rpo).
  const bool Fwd = Dir == Direction::Forward;
  const NodeId BoundaryNode = Fwd ? G.Entry : G.Exit;

  std::vector<unsigned> HeadChanges(N, 0);
  std::vector<char> Visited(N, 0);

  if (Order.Rpo.empty()) {
    Sol.Converged = true;
    return Sol;
  }
  const std::uint32_t Last =
      static_cast<std::uint32_t>(Order.Rpo.size()) - 1;
  // A node's position in the sweep: RPO index forward, its reversal
  // backward. The worklist is keyed by it, so extraction order is a
  // pure function of the CFG.
  auto SweepPos = [&](NodeId Node) {
    return Fwd ? Order.RpoIndex[Node] : Last - Order.RpoIndex[Node];
  };

  // Every node starts dirty (so transfer is applied at least once,
  // unreachable nodes included); afterwards a node is requeued only
  // when a producer's out-state was recomputed. The worklist is a bit
  // set over sweep positions plus a cursor at the lowest word that may
  // hold a set bit: a pop takes the first set bit at or after the
  // cursor, and a requeue below it moves the cursor back, so it pops
  // the sweep-earliest dirty node exactly as an ordered set would,
  // without a node allocation per insert or a heap step per pop.
  const std::size_t Words = (Order.Rpo.size() + 63) / 64;
  std::vector<std::uint64_t> Dirty(Words, ~std::uint64_t{0});
  if (Order.Rpo.size() % 64 != 0)
    Dirty.back() >>= 64 - Order.Rpo.size() % 64;
  std::size_t Cursor = 0;
  auto Requeue = [&](NodeId Node) {
    const std::uint32_t P = SweepPos(Node);
    Dirty[P / 64] |= std::uint64_t{1} << (P % 64);
    Cursor = std::min<std::size_t>(Cursor, P / 64);
  };
  const std::uint64_t Budget =
      static_cast<std::uint64_t>(Opts.MaxRounds) * Order.Rpo.size();
  // Built once; the scratch states live across iterations, so their
  // storage is reused.
  const State Boundary = Dom.boundary(G);
  State NewIn = Bottom, BackIn = Bottom, Edge = Bottom;

  for (;;) {
    while (Cursor < Words && Dirty[Cursor] == 0)
      ++Cursor;
    if (Cursor == Words)
      break;
    if (Sol.NodeVisits >= Budget)
      return Sol; // Budget exhausted: Converged stays false.
    const std::uint32_t Pos = static_cast<std::uint32_t>(
        Cursor * 64 + std::countr_zero(Dirty[Cursor]));
    Dirty[Cursor] &= Dirty[Cursor] - 1;
    NodeId Node = Order.Rpo[Fwd ? Pos : Last - Pos];

    bool Widening =
        Order.LoopHead[Node] && HeadChanges[Node] >= Opts.WidenAfter;

    // Flows from sweep-earlier preds accumulate into NewIn; at a
    // widening head, flows arriving against the sweep order (the
    // loop's own back edges) are collected separately so only THEY
    // get extrapolated — widening a head against values that grow in
    // an *enclosing* loop would throw away that loop's branch
    // refinement (e.g. an inner spin loop widening the outer socket
    // counter past its bound). Away from a widening head BackIn
    // receives nothing, and joining bottom changes nothing, so it is
    // only reset and read there.
    NewIn = Bottom;
    if (Widening)
      BackIn = Bottom;
    if (Node == BoundaryNode)
      Dom.join(NewIn, Boundary);
    auto Flow = [&](NodeId Pred, bool Back) {
      State &Into = Widening && Back ? BackIn : NewIn;
      if constexpr (detail::HasTransferEdge<Domain, State>) {
        if (Fwd)
          Dom.transferEdge(G, Pred, Node, Sol.Out[Pred], Edge);
        else
          Dom.transferEdge(G, Node, Pred, Sol.Out[Pred], Edge);
        Dom.join(Into, Edge);
      } else {
        Dom.join(Into, Sol.Out[Pred]);
      }
    };
    if (Fwd) {
      for (NodeId P : Order.preds(Node))
        Flow(P, Order.RpoIndex[P] >= Order.RpoIndex[Node]);
    } else {
      for (NodeId S : G.successors(Node))
        Flow(S, Order.RpoIndex[S] <= Order.RpoIndex[Node]);
    }

    // Accumulate into the stored in-state (never shrink — keeps the
    // sequence monotone so widening terminates), widening the
    // back-edge part at loop heads once they have churned WidenAfter
    // times.
    bool InChanged = Dom.join(Sol.In[Node], NewIn);
    if (Widening) {
      if constexpr (detail::HasWiden<Domain, State>)
        InChanged |= Dom.widen(Sol.In[Node], BackIn);
      else
        InChanged |= Dom.join(Sol.In[Node], BackIn);
    }
    if (InChanged && Order.LoopHead[Node])
      ++HeadChanges[Node];

    if (InChanged || !Visited[Node]) {
      Visited[Node] = 1;
      Dom.transfer(G, Node, Sol.In[Node], Sol.Out[Node]);
      ++Sol.NodeVisits;
      // The recomputed out-state may differ even on a first visit with
      // an unchanged (bottom) in-state, so dependents are requeued in
      // both cases.
      if (Fwd) {
        for (NodeId S : G.successors(Node))
          Requeue(S);
      } else {
        for (NodeId P : Order.preds(Node))
          Requeue(P);
      }
    }
  }
  Sol.Converged = true;
  return Sol;
}

} // namespace rprosa::analysis::dataflow

#endif // RPROSA_ANALYSIS_DATAFLOW_ENGINE_H
