//===- tests/reference_curves.h - Eq. 2 by pairwise scans -----------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Eq. 2 as the library enforced and checked it before curves had a
/// regulator form (core/arrival_curve.h): earliestCompliantArrival runs
/// minWindowAdmitting against every earlier arrival, firstCurveExcess
/// evaluates the curve once per pair, and generateWorkload pushes its
/// proposals through the former. The bodies are the library's former
/// ones; only the namespace changed. regulator_reference_test runs them
/// against ArrivalRegulator, the library's firstCurveExcess, the
/// generator and the SAG's job set and realizer. Compiled into tests
/// only; no library target links them.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TESTS_REFERENCE_CURVES_H
#define RPROSA_TESTS_REFERENCE_CURVES_H

#include "core/arrival_sequence.h"
#include "sim/workload.h"

#include <optional>
#include <vector>

namespace rprosa::reference {

/// The earliest instant >= \p Proposed at which one more arrival of a
/// task with arrival curve \p Curve may be appended after the ascending
/// times in \p Prev without violating Eq. 2 on any window anchored at a
/// previous arrival; TimeInfinity when the curve admits no further
/// arrival at all.
Time earliestCompliantArrival(const ArrivalCurve &Curve,
                              const std::vector<Time> &Prev, Time Proposed);

/// Eq. 2 over one task's ascending \p Times: for every J ≤ K, in order,
/// the K − J + 1 times T_J..T_K fit a half-open window of length
/// T_K − T_J + 1, so \p Curve must admit that many there. Notes one
/// check in \p R per pair compared and stops at the first excess, which
/// it returns.
std::optional<CurveExcess> firstCurveExcess(const std::vector<Time> &Times,
                                            const ArrivalCurve &Curve,
                                            CheckResult &R);

/// The workload generator over earliestCompliantArrival.
ArrivalSequence generateWorkload(const TaskSet &Tasks,
                                 const std::vector<SocketId> &TaskSocket,
                                 const WorkloadSpec &Spec);

} // namespace rprosa::reference

#endif // RPROSA_TESTS_REFERENCE_CURVES_H
