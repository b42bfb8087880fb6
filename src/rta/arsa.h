//===- rta/arsa.h - Abstract restricted-supply analysis -------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// aRSA (§4.2): response-time analyses for processors subject to supply
/// restrictions, phrased as least fixed points of monotone demand/supply
/// equations. arsa.cpp writes the busy-window search once; NPFP, NP-FIFO
/// and NP-EDF are three instantiations of it. Per task τ_i the walk
/// computes
///
///   blocking     B_i, from the policy part;
///   busy window  L_i = least L ≥ 1 with SBF(L) ≥ B_i + demand_i(L);
///   offsets      A_q = least offset admitting the q-th release of β_i,
///                for q = 1, 2, ... while A_q < L_i (at most 2^20);
///   finish bound F_q, from the policy part, one per offset;
///   R_i = max_q (F_q − A_q), reported as R_i + J_i (Thm. 4.2).
///
/// Every fixpoint goes through one solve helper (warm_start.h's
/// leastFixedPointSeeded, plus telemetry). A fixpoint past the cap, a
/// finish bound past it (exceedsCap) or an exhausted offset budget
/// reports the task unbounded. The three policy parts supply only what
/// differs:
///
///  - NPFP (rta_npfp.h): B_i = max_{lp} C_k (−1 with BlockingMinusOne),
///    the demand of hep(i) ∪ {i}, and per offset the start-bound
///    fixpoint S_q, seeded from S_{q−1}, before
///    F_q = timeToSupply(work + C_i);
///  - NP-FIFO and NP-EDF (rta_policies.h): B_i = max_{k≠i} C_k, the
///    demand of every task's releases within its policy window, and
///    F_q = timeToSupply(B_i + demand(A_q)) floored at A_q + C_i. EDF
///    then marks tasks without a deadline unbounded, after the walk.
///
/// Each part also names the largest window it queries β_k at, which the
/// run's one curve compilation covers. This header holds what the walk
/// shares with the supply models:
///
///  - exceedsCap: the divergence predicate every fixed-point search
///    applies, so an analysis that hits the cap reports the task as
///    unbounded rather than looping forever;
///  - SupplyModel: the interface the walk needs from a supply
///    description — both the restricted supply of Rössl (see sbf.h) and
///    the ideal unit-supply processor implement it.
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
