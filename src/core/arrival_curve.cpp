//===- core/arrival_curve.cpp ---------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/arrival_curve.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <string>

using namespace rprosa;

CheckResult ArrivalCurve::validate(Duration Horizon) const {
  CheckResult R;
  R.noteCheck();
  if (eval(0) != 0)
    R.addFailure("arrival curve violates eval(0) == 0: " + describe());
  // Probe a coarse grid for monotonicity; a full scan is infeasible for
  // ns-granularity horizons, and curve implementations are simple enough
  // that grid probing catches sign errors.
  std::uint64_t Prev = 0;
  Duration Step = Horizon / 256 + 1;
  for (Duration D = 0; D <= Horizon; D = satAdd(D, Step)) {
    R.noteCheck();
    std::uint64_t V = eval(D);
    if (V < Prev) {
      R.addFailure("arrival curve not monotone at Delta=" +
                   std::to_string(D) + ": " + describe());
      break;
    }
    Prev = V;
    if (D == TimeInfinity)
      break;
  }
  return R;
}

PeriodicCurve::PeriodicCurve(Duration Period) : Period(Period) {
  assert(Period > 0 && "period must be positive");
}

std::uint64_t PeriodicCurve::eval(Duration Delta) const {
  if (Delta == 0)
    return 0;
  // ⌈Δ/T⌉ without overflow.
  return (Delta - 1) / Period + 1;
}

std::string PeriodicCurve::describe() const {
  return "periodic(T=" + std::to_string(Period) + ")";
}

std::optional<CurveTail> PeriodicCurve::tail() const {
  // ⌈(Δ+T)/T⌉ = ⌈Δ/T⌉ + 1, and Δ + T never overflows below the bound.
  return CurveTail{Period, 1, 0, TimeInfinity - Period};
}

std::optional<CurveRegulator> PeriodicCurve::regulator() const {
  return CurveRegulator{Period, 0, TimeInfinity - 1};
}

LeakyBucketCurve::LeakyBucketCurve(std::uint64_t Burst, Duration Rate)
    : Burst(Burst), Rate(Rate) {
  assert(Burst > 0 && "burst must admit at least one arrival");
  assert(Rate > 0 && "rate separation must be positive");
}

std::uint64_t LeakyBucketCurve::eval(Duration Delta) const {
  if (Delta == 0)
    return 0;
  return Burst + Delta / Rate;
}

std::string LeakyBucketCurve::describe() const {
  return "leaky-bucket(b=" + std::to_string(Burst) +
         ", r=1/" + std::to_string(Rate) + ")";
}

std::optional<CurveTail> LeakyBucketCurve::tail() const {
  // B + (Δ+R)/R = eval(Δ) + 1 — from 1 (the Δ = 0 special case breaks
  // the step at the origin). The sum B + Δ/R wraps mod 2^64 just like
  // extrapolated table values do, so the recurrence is exact everywhere.
  return CurveTail{Rate, 1, 1, TimeInfinity - Rate};
}

std::optional<CurveRegulator> LeakyBucketCurve::regulator() const {
  // A sum Burst + Δ/Rate that can wrap makes eval non-monotone.
  if (Burst > TimeInfinity - TimeInfinity / Rate)
    return std::nullopt;
  // Slack (1 − Burst)·Rate − 1, floored at −2^126: past the floor no
  // pair of fewer than 2^62 times has a positive bound either way, and
  // the floor keeps every sum in range.
  constexpr WideTime Floor = WideTime(1) << 126;
  WideTime Lag = WideTime(Burst - 1) <= (Floor - 1) / Rate
                     ? WideTime(Burst - 1) * Rate + 1
                     : Floor;
  return CurveRegulator{Rate, -Lag, TimeInfinity - 1};
}

StaircaseCurve::StaircaseCurve(std::vector<Step> Steps, Duration TailPeriod)
    : Steps(std::move(Steps)), TailPeriod(TailPeriod) {
  assert(!this->Steps.empty() && "need at least one step");
  for (std::size_t I = 1; I < this->Steps.size(); ++I) {
    assert(this->Steps[I - 1].UpToLength < this->Steps[I].UpToLength &&
           "steps must be sorted by window length");
    assert(this->Steps[I - 1].Bound <= this->Steps[I].Bound &&
           "bounds must be non-decreasing");
  }
}

std::uint64_t StaircaseCurve::eval(Duration Delta) const {
  if (Delta == 0)
    return 0;
  const Step *Best = nullptr;
  for (const Step &S : Steps) {
    if (Delta <= S.UpToLength) {
      Best = &S;
      break;
    }
  }
  if (Best)
    return Best->Bound;
  const Step &Last = Steps.back();
  if (TailPeriod == 0)
    return Last.Bound;
  return Last.Bound + (Delta - Last.UpToLength) / TailPeriod;
}

std::string StaircaseCurve::describe() const {
  return "staircase(" + std::to_string(Steps.size()) + " steps)";
}

std::optional<CurveTail> StaircaseCurve::tail() const {
  const Step &Last = Steps.back();
  // Beyond the last explicit step the curve is Last.Bound plus one
  // arrival per TailPeriod (or constant when TailPeriod == 0).
  Duration From = satAdd(Last.UpToLength, 1);
  if (From == TimeInfinity)
    return std::nullopt;
  if (TailPeriod == 0)
    return CurveTail{1, 0, From, TimeInfinity - 1};
  if (TimeInfinity - TailPeriod < From)
    return std::nullopt;
  return CurveTail{TailPeriod, 1, From, TimeInfinity - TailPeriod};
}

PeriodicJitterCurve::PeriodicJitterCurve(Duration Period, Duration Jit)
    : Period(Period), Jit(Jit) {
  assert(Period > 0 && "period must be positive");
}

std::uint64_t PeriodicJitterCurve::eval(Duration Delta) const {
  if (Delta == 0)
    return 0;
  // ⌈(Δ + Jit)/T⌉.
  Duration Num = satAdd(Delta, Jit);
  return (Num - 1) / Period + 1;
}

std::string PeriodicJitterCurve::describe() const {
  return "periodic-jitter(T=" + std::to_string(Period) +
         ", J=" + std::to_string(Jit) + ")";
}

std::optional<CurveTail> PeriodicJitterCurve::tail() const {
  // ⌈(Δ+T+Jit)/T⌉ = ⌈(Δ+Jit)/T⌉ + 1 — valid only while Δ + Jit is
  // computed exactly; past ValidTo the internal satAdd clamps and the
  // recurrence breaks, so the tail stops there.
  Duration Slack = satAdd(Period, Jit);
  if (Slack == TimeInfinity)
    return std::nullopt;
  return CurveTail{Period, 1, 1, TimeInfinity - Slack};
}

std::optional<CurveRegulator> PeriodicJitterCurve::regulator() const {
  // Exact while the window plus Jit does not saturate.
  if (Jit == TimeInfinity)
    return std::nullopt;
  return CurveRegulator{Period, -WideTime(Jit), TimeInfinity - 1 - Jit};
}

SumCurve::SumCurve(std::vector<ArrivalCurvePtr> Parts)
    : Parts(std::move(Parts)) {
  assert(!this->Parts.empty() && "sum of zero curves");
  for ([[maybe_unused]] const ArrivalCurvePtr &P : this->Parts)
    assert(P && "missing summand");
}

std::uint64_t SumCurve::eval(Duration Delta) const {
  std::uint64_t Sum = 0;
  for (const ArrivalCurvePtr &P : Parts)
    Sum += P->eval(Delta);
  return Sum;
}

std::string SumCurve::describe() const {
  return "sum(" + std::to_string(Parts.size()) + " curves)";
}

std::optional<CurveTail> SumCurve::tail() const {
  // The sum steps by the lcm of the part periods, gaining each part's
  // increment once per part period. Addition commutes with reduction
  // mod 2^64, so the combined recurrence is as exact as the parts'.
  Duration Period = 1;
  Duration From = 0;
  Duration ValidTo = TimeInfinity;
  constexpr Duration MaxPeriod = 1ull << 42;
  std::vector<CurveTail> Tails;
  for (const ArrivalCurvePtr &P : Parts) {
    std::optional<CurveTail> T = P->tail();
    if (!T)
      return std::nullopt;
    Duration G = std::gcd(Period, T->Period);
    Duration Lcm = Period / G;
    if (Lcm > MaxPeriod / T->Period)
      return std::nullopt; // lcm blow-up: not worth a table this wide.
    Period = Lcm * T->Period;
    From = std::max(From, T->From);
    ValidTo = std::min(ValidTo, T->ValidTo);
    Tails.push_back(*T);
  }
  std::uint64_t Increment = 0;
  for (const CurveTail &T : Tails) {
    Increment += (Period / T.Period) * T.Increment;
    // One combined step applies a part's recurrence Period/T.Period
    // times, the last at Delta + Period - T.Period: shrink the window
    // so every intermediate application stays within the part's.
    Duration Overhang = Period - T.Period;
    if (T.ValidTo < Overhang)
      return std::nullopt;
    ValidTo = std::min(ValidTo, T.ValidTo - Overhang);
  }
  if (ValidTo < From)
    return std::nullopt;
  return CurveTail{Period, Increment, From, ValidTo};
}

MinCurve::MinCurve(ArrivalCurvePtr A, ArrivalCurvePtr B)
    : A(std::move(A)), B(std::move(B)) {
  assert(this->A && this->B && "missing operand");
}

std::uint64_t MinCurve::eval(Duration Delta) const {
  return std::min(A->eval(Delta), B->eval(Delta));
}

std::string MinCurve::describe() const {
  return "min(" + A->describe() + ", " + B->describe() + ")";
}

ScaledCurve::ScaledCurve(ArrivalCurvePtr Inner, std::uint64_t Factor)
    : Inner(std::move(Inner)), Factor(Factor) {
  assert(this->Inner && "missing inner curve");
  assert(Factor > 0 && "zero scale makes a zero curve; use ZeroCurve");
}

std::uint64_t ScaledCurve::eval(Duration Delta) const {
  return Factor * Inner->eval(Delta);
}

std::string ScaledCurve::describe() const {
  return std::to_string(Factor) + "x(" + Inner->describe() + ")";
}

std::optional<CurveTail> ScaledCurve::tail() const {
  std::optional<CurveTail> T = Inner->tail();
  if (!T)
    return std::nullopt;
  // Factor * (v + Inc) = Factor*v + Factor*Inc, mod 2^64 exactly as
  // eval() computes it.
  return CurveTail{T->Period, Factor * T->Increment, T->From, T->ValidTo};
}

Duration rprosa::minWindowAdmitting(const ArrivalCurve &Curve,
                                    std::uint64_t Count, Duration SearchCap) {
  return minWindowAdmittingIn(Curve, Count, SearchCap);
}

ShiftedCurve::ShiftedCurve(ArrivalCurvePtr Inner, Duration Shift)
    : Inner(std::move(Inner)), Shift(Shift) {
  assert(this->Inner && "inner curve required");
}

std::uint64_t ShiftedCurve::eval(Duration Delta) const {
  if (Delta == 0)
    return 0;
  return Inner->eval(satAdd(Delta, Shift));
}

std::string ShiftedCurve::describe() const {
  return Inner->describe() + "+shift(" + std::to_string(Shift) + ")";
}

std::optional<CurveTail> ShiftedCurve::tail() const {
  std::optional<CurveTail> T = Inner->tail();
  if (!T)
    return std::nullopt;
  // eval(Δ) = Inner(Δ + Shift) for Δ > 0, so the inner recurrence
  // window translates left by Shift. Stay below both the inner window
  // and the point where our own satAdd would clamp.
  Duration From = T->From > Shift ? T->From - Shift : 1;
  From = std::max<Duration>(From, 1);
  Duration ValidTo = T->ValidTo > Shift ? T->ValidTo - Shift : 0;
  ValidTo = std::min(ValidTo, TimeInfinity - Shift >= T->Period
                                  ? TimeInfinity - Shift - T->Period
                                  : 0);
  if (ValidTo < From)
    return std::nullopt;
  return CurveTail{T->Period, T->Increment, From, ValidTo};
}
