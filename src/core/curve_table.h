//===- core/curve_table.h - Flat step-function curve kernels --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hot path of every response-time analysis is arrival-curve
/// evaluation inside fixpoint iteration: each Kleene iterate sums
/// β_k(Δ) over tasks, and the SBF's job bound sums them again. With the
/// polymorphic ArrivalCurve tree each of those evaluations is a chain
/// of virtual calls behind shared_ptrs (Shifted → Sum → parts...).
///
/// FlatCurveTable compiles a curve once into a contiguous step-function
/// table: strictly increasing breakpoints `Breaks` with values `Vals`,
/// where eval(Δ) = Vals[i] for the largest i with Breaks[i] ≤ Δ. Eval
/// is then a branch-free binary search over one cache-resident array —
/// or a direct index into a dense value array when the covered range is
/// small. Beyond the compiled range:
///
///  - if the curve certified an exact eventually-periodic tail
///    (ArrivalCurve::tail()), only one tail period of breakpoints is
///    compiled and larger Δ extrapolate by whole periods, inline in
///    eval — *exactly*, in the same wrapping uint64 arithmetic the
///    curve itself uses;
///  - otherwise (or past the tail's ValidTo guard) eval falls back to
///    the source curve, out of line, which is exact by definition.
///
/// Equivalence `flat.eval(Δ) == curve.eval(Δ)` for every Δ — including
/// the saturation edge near UINT64_MAX — is asserted by
/// tests/curve_table_test.cpp over every curve shape in the library.
///
/// FlatReleaseSet packages what an analysis run actually needs: one
/// table per task's arrival curve α_i plus the common release jitter J,
/// so every release-curve evaluation β_i(Δ) = α_i(Δ + J) is an offset
/// into the task's table rather than a ShiftedCurve virtual chain. It is
/// the RTA's only release-curve path: the busy-window fixpoints and the
/// SBF's job bound (rta/sbf.h) both evaluate through it.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CORE_CURVE_TABLE_H
#define RPROSA_CORE_CURVE_TABLE_H

#include "core/arrival_curve.h"
#include "core/time.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace rprosa {

/// A compiled step-function view of one ArrivalCurve. Immutable after
/// construction and lock-free to evaluate, so one table may be shared
/// across sweep threads freely.
class FlatCurveTable {
public:
  FlatCurveTable() = default;

  /// Compiles \p Curve for queries up to \p Horizon. Queries beyond the
  /// horizon stay exact (tail extrapolation or source fallback), only
  /// potentially slower.
  explicit FlatCurveTable(ArrivalCurvePtr Curve,
                          Duration Horizon = 100 * TickSec);

  /// Exactly Source->eval(Delta), via the table.
  std::uint64_t eval(Duration Delta) const {
    if (Delta <= Covered) {
      if (!DenseVals.empty())
        return DenseVals[Delta];
      return evalSearch(Delta);
    }
    if (HasTail && Delta <= TailValidTo) {
      // Reduce Delta by whole tail periods into (Covered - Period,
      // Covered] and add the per-period increments. The recurrence
      // chain runs over Base, Base+P, ..., Delta-P, all ≤ ValidTo since
      // Delta is; the arithmetic wraps mod 2^64 exactly like the
      // source's own (the tail contract, arrival_curve.h). The search
      // over the few breakpoints of one period stays in L1, where a
      // dense value array of up to 2^16 entries would not.
      Duration Span = Delta - Covered;
      Duration Rem = Span % TailPeriod;
      std::uint64_t K = Span / TailPeriod;
      Duration Base = Covered;
      if (Rem != 0) {
        Base = Covered - (TailPeriod - Rem);
        ++K;
      }
      return evalSearch(Base) + K * TailIncrement;
    }
    return evalSource(Delta);
  }

  const ArrivalCurvePtr &source() const { return Source; }
  /// The last Δ the breakpoint table answers directly.
  Duration covered() const { return Covered; }
  std::size_t breakpoints() const { return Breaks.size(); }
  bool hasTail() const { return HasTail; }
  bool dense() const { return !DenseVals.empty(); }

private:
  /// Branch-free binary search for the largest breakpoint ≤ Delta.
  /// Requires Delta ≤ Covered (Breaks[0] == 0 anchors the search).
  std::uint64_t evalSearch(Duration Delta) const {
    const Duration *Base = Breaks.data();
    std::size_t N = Breaks.size();
    while (std::size_t Half = N / 2) {
      // With cmov this loop is branchless; the array is contiguous and
      // hot, so the search is a handful of L1 hits.
      Base += (Base[Half] <= Delta) ? Half : 0;
      N -= Half;
    }
    return Vals[static_cast<std::size_t>(Base - Breaks.data())];
  }

  /// Source->eval(Delta): past the table and any certified tail.
  std::uint64_t evalSource(Duration Delta) const;

  ArrivalCurvePtr Source;
  std::vector<Duration> Breaks; ///< Strictly increasing, Breaks[0] == 0.
  std::vector<std::uint64_t> Vals; ///< Vals[i] = eval(Breaks[i]).
  std::vector<std::uint64_t> DenseVals; ///< Optional: value per tick.
  Duration Covered = 0;
  Duration TailPeriod = 0;
  std::uint64_t TailIncrement = 0;
  Duration TailValidTo = 0;
  bool HasTail = false;
};

/// The per-run curve compilation the analyses evaluate through: one
/// FlatCurveTable per task arrival curve α_i plus the common release
/// jitter, so β_i(Δ) = α_i(Δ + J) (jitter.h's ShiftedCurve semantics,
/// including β_i(0) = 0) is one table lookup.
class FlatReleaseSet {
public:
  /// Compiles each of \p Alphas for release-curve queries up to
  /// \p Horizon (the shift is added internally, so pass the analysis
  /// horizon, not the pre-shifted one).
  FlatReleaseSet(const std::vector<ArrivalCurvePtr> &Alphas, Duration Shift,
                 Duration Horizon);

  /// β_i(Δ) = α_i(Δ + J) for Δ > 0, 0 at Δ = 0 — bit-identical to
  /// evaluating jitter.h's makeReleaseCurve(α_i, J).
  std::uint64_t evalRelease(std::size_t I, Duration Delta) const {
    if (Delta == 0)
      return 0;
    return Tables[I].eval(satAdd(Delta, Shift));
  }

  std::size_t size() const { return Tables.size(); }
  Duration shift() const { return Shift; }
  const FlatCurveTable &table(std::size_t I) const { return Tables[I]; }

private:
  std::vector<FlatCurveTable> Tables;
  Duration Shift = 0;
};

/// A single-task view of a FlatReleaseSet modeling the monotone
/// evaluator concept of minWindowAdmittingIn (arrival_curve.h), so the
/// RTA offset walk runs on the flat kernel too.
class FlatReleaseView {
public:
  FlatReleaseView(const FlatReleaseSet &Set, std::size_t I)
      : Set(&Set), Idx(I) {}

  std::uint64_t eval(Duration Delta) const {
    return Set->evalRelease(Idx, Delta);
  }

private:
  const FlatReleaseSet *Set;
  std::size_t Idx;
};

} // namespace rprosa

#endif // RPROSA_CORE_CURVE_TABLE_H
