//===- core/arrival_curve.h - Arrival curves (workload model) -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arrival curves α_i bound the job arrival rate per task (§4.1): α_i(Δ)
/// is an upper bound on the number of jobs of task τ_i that may arrive
/// in *any* half-open time window of length Δ. Required properties:
///   - α(0) = 0,
///   - α is monotonically non-decreasing.
///
/// The paper supports arbitrary arrival curves (a key generalization over
/// ProKOS's periodic tasks, §6). We provide the standard shapes:
/// periodic/sporadic (min-separation), leaky-bucket (burst + rate), an
/// explicit staircase, and combinators.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CORE_ARRIVAL_CURVE_H
#define RPROSA_CORE_ARRIVAL_CURVE_H

#include "core/time.h"
#include "support/check.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace rprosa {

/// An exact eventually-periodic description of a curve's long-run
/// behavior, used by FlatCurveTable (core/curve_table.h) to extrapolate
/// beyond its compiled breakpoint table:
///
///   for every Delta with From <= Delta <= ValidTo:
///     eval(Delta + Period) == eval(Delta) + Increment
///
/// where the addition is the same plain wrapping uint64 arithmetic the
/// curve itself computes with (SumCurve/ScaledCurve accumulate without
/// saturation, so a recurrence that holds in Z holds mod 2^64 as well).
/// ValidTo guards curves whose eval saturates internally (satAdd in
/// PeriodicJitterCurve/ShiftedCurve): beyond it the recurrence may be
/// broken by clamping and callers must fall back to eval(). A curve
/// with no exact tail (or none it can prove) returns nullopt.
struct CurveTail {
  Duration Period = 0;            ///< Recurrence period (> 0).
  std::uint64_t Increment = 0;    ///< Value gained per period.
  Duration From = 0;              ///< First Delta the recurrence holds at.
  Duration ValidTo = TimeInfinity;///< Last Delta it may be applied at.
};

/// The signed 128-bit integer regulator arithmetic runs in: counts
/// times periods and times minus them never overflow it. __extension__
/// keeps -Wpedantic quiet; GCC and Clang both provide it.
__extension__ typedef __int128 WideTime;

/// Eq. 2 as a spacing rule (a regulator). For ascending times
/// t_0 ≤ … ≤ t_{n−1} with t_{n−1} − t_0 ≤ ValidTo, the curve admits
/// every window of the sequence (K − J + 1 ≤ α(t_K − t_J + 1) for all
/// J ≤ K) iff
///
///   t_K − t_J ≥ (K − J)·Period + Slack   for every J < K.
///
/// With U_i = t_i − i·Period that is one running maximum,
/// U_K ≥ max_{J<K} U_J + Slack, and the earliest compliant arrival
/// after n of them is max(t_{n−1}, max U + n·Period + Slack).
///
///   - periodic ⌈Δ/T⌉: c ≤ ⌈(s + 1)/T⌉ iff s ≥ (c − 1)·T, so (T, 0);
///   - periodic-jitter ⌈(Δ + Jit)/T⌉: (T, −Jit), while Δ + Jit stays
///     below saturation (ValidTo = TimeInfinity − 1 − Jit);
///   - leaky-bucket b + ⌊Δ/R⌋: c ≤ b + ⌊(s + 1)/R⌋ iff c ≤ b or
///     s ≥ (c − b)·R − 1, so (R, (1 − b)·R − 1), unless the sum can
///     wrap. The pairs with c ≤ b need no term of their own: the rule's
///     right side is negative for them, so ascending order satisfies
///     them, just as minWindowAdmitting's floor max(1, ·) admits them
///     in a window of length 1.
///
/// ValidTo is below TimeInfinity for every curve, since the window
/// t_K − t_J + 1 wraps at a span of TimeInfinity. The rule holds for
/// fewer than 2^62 times, which bounds every product in WideTime.
/// Combinators report no form, so compliance with them is scanned.
struct CurveRegulator {
  Duration Period = 1;             ///< Spacing per arrival (> 0).
  WideTime Slack = 0;              ///< Extra spacing, may be negative.
  Duration ValidTo = TimeInfinity - 1; ///< Largest span it holds over.
};

/// Abstract arrival curve. Implementations must be monotone with
/// eval(0) == 0; validate() spot-checks this.
class ArrivalCurve {
public:
  virtual ~ArrivalCurve() = default;

  /// Returns an upper bound on the number of arrivals in any half-open
  /// window of length \p Delta.
  virtual std::uint64_t eval(Duration Delta) const = 0;

  /// A human-readable description of the curve ("periodic(T=10ms)").
  virtual std::string describe() const = 0;

  /// The curve's exact eventually-periodic tail, if it has one it can
  /// prove (see CurveTail). Purely an acceleration hint: FlatCurveTable
  /// compiles only one tail period of breakpoints and extrapolates; a
  /// nullopt tail merely costs table size, never correctness.
  virtual std::optional<CurveTail> tail() const { return std::nullopt; }

  /// The curve's Eq. 2 spacing rule, if it has one (see CurveRegulator).
  /// Purely an acceleration: without one, compliance is scanned pair
  /// by pair (core/arrival_sequence.h) with the same answers.
  virtual std::optional<CurveRegulator> regulator() const {
    return std::nullopt;
  }

  /// Spot-checks the curve axioms (eval(0)==0, monotonicity on a probe
  /// grid up to \p Horizon).
  CheckResult validate(Duration Horizon) const;
};

using ArrivalCurvePtr = std::shared_ptr<const ArrivalCurve>;

/// Periodic / sporadic arrivals with minimum separation T:
/// α(Δ) = ⌈Δ/T⌉.
class PeriodicCurve : public ArrivalCurve {
public:
  explicit PeriodicCurve(Duration Period);

  std::uint64_t eval(Duration Delta) const override;
  std::string describe() const override;
  std::optional<CurveTail> tail() const override;
  std::optional<CurveRegulator> regulator() const override;

  Duration period() const { return Period; }

private:
  Duration Period;
};

/// Leaky-bucket arrivals: α(Δ) = 0 for Δ = 0, else Burst + ⌊Δ/Rate⌋
/// where Rate is the steady-state minimum separation. Models a bursty
/// source that may deliver up to Burst back-to-back messages.
class LeakyBucketCurve : public ArrivalCurve {
public:
  LeakyBucketCurve(std::uint64_t Burst, Duration Rate);

  std::uint64_t eval(Duration Delta) const override;
  std::string describe() const override;
  std::optional<CurveTail> tail() const override;
  std::optional<CurveRegulator> regulator() const override;

  std::uint64_t burst() const { return Burst; }
  Duration rate() const { return Rate; }

private:
  std::uint64_t Burst;
  Duration Rate;
};

/// An explicit staircase given as (window length, bound) breakpoints.
/// eval(Δ) = the bound of the largest breakpoint with length ≤ Δ.
class StaircaseCurve : public ArrivalCurve {
public:
  struct Step {
    Duration UpToLength; ///< Window lengths ≤ this get...
    std::uint64_t Bound; ///< ...this arrival bound.
  };

  /// \p Steps must be sorted by UpToLength with non-decreasing bounds;
  /// windows longer than the last step extrapolate linearly using
  /// \p TailPeriod extra arrivals per TailPeriod ticks (0 = constant).
  StaircaseCurve(std::vector<Step> Steps, Duration TailPeriod = 0);

  std::uint64_t eval(Duration Delta) const override;
  std::string describe() const override;
  std::optional<CurveTail> tail() const override;

private:
  std::vector<Step> Steps;
  Duration TailPeriod;
};

/// The curve shifted by a constant window extension: eval(Δ) =
/// Inner(Δ + Shift) for Δ > 0, and 0 at Δ = 0. This is exactly the
/// *release curve* construction of §4.3: β_i(Δ) = α_i(Δ + J_i).
class ShiftedCurve : public ArrivalCurve {
public:
  ShiftedCurve(ArrivalCurvePtr Inner, Duration Shift);

  std::uint64_t eval(Duration Delta) const override;
  std::string describe() const override;
  std::optional<CurveTail> tail() const override;

  const ArrivalCurvePtr &inner() const { return Inner; }
  Duration shift() const { return Shift; }

private:
  ArrivalCurvePtr Inner;
  Duration Shift;
};

/// The zero curve (no arrivals); useful for disabled tasks in tests.
class ZeroCurve : public ArrivalCurve {
public:
  std::uint64_t eval(Duration) const override { return 0; }
  std::string describe() const override { return "zero"; }
  std::optional<CurveTail> tail() const override {
    return CurveTail{1, 0, 0, TimeInfinity - 1};
  }
};

/// Periodic arrivals subject to release jitter at the *source*:
/// α(Δ) = ⌈(Δ + Jit)/T⌉. The classic "periodic with jitter" event
/// model (Audsley et al.); jitter squeezes events closer together, so
/// small windows admit more arrivals than the plain periodic curve.
class PeriodicJitterCurve : public ArrivalCurve {
public:
  PeriodicJitterCurve(Duration Period, Duration Jit);

  std::uint64_t eval(Duration Delta) const override;
  std::string describe() const override;
  std::optional<CurveTail> tail() const override;
  std::optional<CurveRegulator> regulator() const override;

private:
  Duration Period;
  Duration Jit;
};

/// Pointwise sum of several curves: a task fed by independent sources.
class SumCurve : public ArrivalCurve {
public:
  explicit SumCurve(std::vector<ArrivalCurvePtr> Parts);

  std::uint64_t eval(Duration Delta) const override;
  std::string describe() const override;
  std::optional<CurveTail> tail() const override;

private:
  std::vector<ArrivalCurvePtr> Parts;
};

/// Pointwise minimum of two curves: when two independent bounds are
/// known (e.g. a burst limit and a long-run rate), their minimum is
/// also a valid — and tighter — arrival curve.
///
/// Deliberately reports no tail(): min does not commute with the
/// wrapping arithmetic the tail contract is stated in (an operand's
/// value can wrap while the min stays small), so an exact recurrence
/// cannot be certified in general. FlatCurveTable falls back to eval()
/// beyond its compiled horizon, which is always exact.
class MinCurve : public ArrivalCurve {
public:
  MinCurve(ArrivalCurvePtr A, ArrivalCurvePtr B);

  std::uint64_t eval(Duration Delta) const override;
  std::string describe() const override;

private:
  ArrivalCurvePtr A, B;
};

/// K identical sources: α(Δ) = K · Inner(Δ).
class ScaledCurve : public ArrivalCurve {
public:
  ScaledCurve(ArrivalCurvePtr Inner, std::uint64_t Factor);

  std::uint64_t eval(Duration Delta) const override;
  std::string describe() const override;
  std::optional<CurveTail> tail() const override;

private:
  ArrivalCurvePtr Inner;
  std::uint64_t Factor;
};

/// The smallest window length Delta with Eval.eval(Delta) >= Count, for
/// any monotone evaluator with eval(0) == 0 (an ArrivalCurve, a
/// FlatCurveTable, a FlatReleaseView). Doubling + binary search;
/// TimeInfinity if no window below \p SearchCap admits Count arrivals.
template <typename EvalT>
Duration minWindowAdmittingIn(const EvalT &Eval, std::uint64_t Count,
                              Duration SearchCap) {
  if (Count == 0)
    return 0;
  // Doubling phase: find some window admitting Count.
  Duration Hi = 1;
  while (Eval.eval(Hi) < Count) {
    if (Hi >= SearchCap)
      return TimeInfinity;
    Hi = satMul(Hi, 2);
    if (Hi > SearchCap)
      Hi = SearchCap;
  }
  // Binary search for the smallest such window.
  Duration Lo = 1;
  while (Lo < Hi) {
    Duration Mid = Lo + (Hi - Lo) / 2;
    if (Eval.eval(Mid) >= Count)
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  return Hi;
}

/// minWindowAdmitting's default search cap: one year. A curve that
/// admits no more arrivals in a window that long admits none at all as
/// far as the workload generators and the SAG are concerned.
inline constexpr Duration WindowSearchCap = 365ull * 24 * 3600 * TickSec;

/// The smallest window length Delta with Curve.eval(Delta) >= Count
/// (doubling + binary search over the monotone curve; TimeInfinity if
/// no window below \p SearchCap admits Count arrivals). Used by the
/// workload generators (earliest compliant arrival times) and by the
/// RTA (release offsets A_q within a busy window).
Duration minWindowAdmitting(const ArrivalCurve &Curve, std::uint64_t Count,
                            Duration SearchCap = WindowSearchCap);

} // namespace rprosa

#endif // RPROSA_CORE_ARRIVAL_CURVE_H
