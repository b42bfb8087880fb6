//===- rta/arsa.h - Abstract restricted-supply analysis machinery ---------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generic skeleton of aRSA (§4.2): response-time analyses for
/// processors subject to supply restrictions are phrased as least fixed
/// points of monotone demand/supply equations. This header provides the
/// shared machinery:
///
///  - exceedsCap: the divergence predicate every fixed-point search
///    (warm_start.h's leastFixedPointSeeded) applies, so an analysis that
///    hits the cap reports the task as unbounded rather than looping
///    forever;
///  - SupplyModel: the interface the concrete analysis needs from a
///    supply description — both the restricted supply of Rössl (see
///    sbf.h) and the ideal unit-supply processor implement it.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_RTA_ARSA_H
#define RPROSA_RTA_ARSA_H

#include "core/time.h"

namespace rprosa {

/// The one divergence predicate of every fixed-point search. The cap is
/// *inclusive*: a bound of exactly Cap is still accepted, only bounds
/// strictly beyond it (or saturated to TimeInfinity) mean "unbounded".
/// Every cap comparison in the analyses must go through this helper so
/// the boundary cannot drift between call sites — and it must be
/// applied to the *final* candidate bound, after any completion floors
/// (max with release + WCET) have been folded in.
inline bool exceedsCap(Time T, Time Cap) {
  return T == TimeInfinity || T > Cap;
}

/// What an RTA needs to know about the processor's supply.
class SupplyModel {
public:
  virtual ~SupplyModel() = default;

  /// A lower bound on the supply in any (busy-window-anchored) interval
  /// of length \p Delta — the SBF of §4.4.
  virtual Duration supplyBound(Duration Delta) const = 0;

  /// The least interval length t with supplyBound(t) >= \p Work
  /// (TimeInfinity if none exists below the model's own cap).
  virtual Time timeToSupply(Duration Work) const = 0;
};

/// The ideal uniprocessor: one unit of supply per instant. Used by the
/// no-overhead baseline analyses (and by the unsound overhead-oblivious
/// analysis of experiment E6).
class IdealSupply : public SupplyModel {
public:
  Duration supplyBound(Duration Delta) const override { return Delta; }
  Time timeToSupply(Duration Work) const override { return Work; }
};

} // namespace rprosa

#endif // RPROSA_RTA_ARSA_H
