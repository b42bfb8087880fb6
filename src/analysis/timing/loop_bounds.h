//===- analysis/timing/loop_bounds.h - Static loop-trip bounds ------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop classification for the static cost analysis (segment_costs.h).
/// Every cycle in the lowered program must fall into one of three
/// benign shapes for segment costs to be finite:
///
///  - *Fuel-governed*: the loop condition consults the Fuel register —
///    the executable stand-in for the paper's finite reasoning horizon.
///    Such loops bound whole-run length, not segment length; a segment
///    never spans a Fuel test and a marker of a later iteration without
///    crossing another marker first.
///  - *Marker-carrying*: the cycle contains a Read or Trace node, so a
///    marker segment cannot wrap around it — every traversal ends the
///    segment at that marker. (This is the same observation the
///    fuel-termination lint relies on, from the other side: the model
///    check bounds the markers, the timing pass bounds the gaps
///    between them.)
///  - *Counter-bounded*: the loop condition is `reg < K` for a literal
///    K, and every in-cycle write to the register adds a positive
///    literal; the trip count is then at most ceil((K - start) / step)
///    with `start` the smallest literal the register can enter the
///    loop with (registers zero-fill, so a never-written register
///    starts at 0).
///
/// A cycle matching none of the shapes is reported with MaxTrips
/// unresolved; the segment analysis turns that into an infinite upper
/// bound with a diagnostic naming the loop head.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ANALYSIS_TIMING_LOOP_BOUNDS_H
#define RPROSA_ANALYSIS_TIMING_LOOP_BOUNDS_H

#include "analysis/cfg.h"

#include <memory>
#include <string>
#include <vector>

namespace rprosa::analysis {

/// The classification of one cycle, anchored at a Branch node heading
/// it (a strongly connected region with several branches is reported
/// once per heading branch).
struct LoopBound {
  /// The Branch node whose condition guards the cycle.
  NodeId Head = InvalidNode;
  /// Nodes on some cycle through Head (including Head itself): Head's
  /// strongly connected region, ascending. Every head of one region
  /// shares the one list.
  std::shared_ptr<const std::vector<NodeId>> CycleNodes;
  /// The cycle contains a Read or Trace node: a marker segment cannot
  /// wrap around it.
  bool ContainsMarker = false;
  /// The loop condition consults Fuel (whole-run bound).
  bool FuelGoverned = false;
  /// The counter pattern matched and MaxTrips is valid.
  bool HasCounterBound = false;
  /// Upper bound on consecutive traversals of the cycle body
  /// (HasCounterBound only).
  std::uint64_t MaxTrips = 0;

  /// True when the timing analysis can bound every segment crossing
  /// this cycle.
  bool benign() const {
    return ContainsMarker || FuelGoverned || HasCounterBound;
  }

  /// One-line rendering ("n12 [r5 < 8]: counter-bounded, <= 8 trips").
  std::string describe(const Cfg &G) const;
};

/// Classifies every cycle-heading Branch of \p G.
std::vector<LoopBound> inferLoopBounds(const Cfg &G);

} // namespace rprosa::analysis

#endif // RPROSA_ANALYSIS_TIMING_LOOP_BOUNDS_H
