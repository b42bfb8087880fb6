//===- tests/reference_dataflow.h - The by-value dataflow solver ----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dataflow engine (analysis/dataflow/engine.h) as it stood before
/// it wrote states in place and kept its worklist as a bit set.
/// solve() pops the sweep-earliest dirty node from a min-heap of sweep
/// positions, every transfer, edge flow and join works on a fresh state
/// built from bottom, and the boundary is rebuilt on every visit of its
/// node; it
/// drives the library's domain API, so dataflow_reference_test can hold
/// the library's solve to it state for state. It runs over an order
/// computed as before as well: a successor vector per DFS frame and a
/// predecessor vector per node (computeOrder). Compiled into tests
/// only; no library target links it.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TESTS_REFERENCE_DATAFLOW_H
#define RPROSA_TESTS_REFERENCE_DATAFLOW_H

#include "analysis/dataflow/engine.h"

#include <vector>

namespace rprosa::reference {

/// CfgOrder as CfgOrder::compute built it before its predecessors lived
/// in one flat array.
struct ReferenceOrder {
  std::vector<analysis::NodeId> Rpo;
  std::vector<std::uint32_t> RpoIndex;
  /// Forward-edge predecessors of each node, ascending.
  std::vector<std::vector<analysis::NodeId>> Preds;
  std::vector<bool> LoopHead;
  std::vector<bool> Reachable;
};

ReferenceOrder computeOrder(const analysis::Cfg &G);

/// The by-value fixpoint loop. Instantiated for RangeDomain,
/// ZoneDomain, InitDomain, MarkerDomain and LiveDomain.
template <class Domain>
analysis::dataflow::Solution<typename Domain::State>
solve(const analysis::Cfg &G, const Domain &Dom, const ReferenceOrder &Order,
      analysis::dataflow::Direction Dir =
          analysis::dataflow::Direction::Forward,
      analysis::dataflow::SolveOptions Opts = {});

/// The backward instance both dataflow suites run: live registers (read
/// later before being clobbered). Its state has no reachability flag;
/// bottom is "nothing live".
struct LiveDomain {
  using State = std::vector<bool>;

  explicit LiveDomain(std::uint32_t NumRegs) : NumRegs(NumRegs) {}

  State bottom(const analysis::Cfg &) const { return State(NumRegs, false); }
  State boundary(const analysis::Cfg &) const {
    return State(NumRegs, false);
  }
  bool join(State &Into, const State &S) const;
  /// Backward: \p In is the state after the node, \p Out the state
  /// before it.
  void transfer(const analysis::Cfg &G, analysis::NodeId N, const State &In,
                State &Out) const;

  std::uint32_t NumRegs;
};

} // namespace rprosa::reference

#endif // RPROSA_TESTS_REFERENCE_DATAFLOW_H
