//===- core/curve_table.cpp -----------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/curve_table.h"

#include "support/check.h"

#include <algorithm>

using namespace rprosa;

namespace {

/// Hard cap on the number of breakpoints compiled for curves without a
/// certified tail; beyond the covered range eval falls back to the
/// source curve.
constexpr std::size_t MaxBreakpoints = 1 << 14;

/// When the covered range fits, additionally build a dense
/// value-per-tick array for O(1) direct-index eval.
constexpr std::size_t DenseLimit = 1 << 16;

} // namespace

FlatCurveTable::FlatCurveTable(ArrivalCurvePtr Curve, Duration Horizon)
    : Source(std::move(Curve)) {
  RPROSA_CHECK(Source != nullptr, "FlatCurveTable requires a curve");

  // With a certified tail, one tail period of breakpoints is enough for
  // the whole domain: compile through From + Period and extrapolate.
  // Without one, compile to the requested horizon and fall back beyond.
  std::optional<CurveTail> Tail = Source->tail();
  Duration End = Horizon;
  if (Tail && Tail->Period > 0) {
    Duration TailEnd = satAdd(Tail->From, Tail->Period);
    if (TailEnd < TimeInfinity)
      End = TailEnd;
    else
      Tail.reset();
  }

  // Scan the breakpoints: from each known (Delta, value) pair, binary
  // search for the least larger Delta whose value increases. The curve
  // is monotone, so this enumerates exactly the steps in [0, End].
  Breaks.push_back(0);
  Vals.push_back(Source->eval(0));
  Duration Cur = 0;
  std::uint64_t CurVal = Vals.back();
  const std::uint64_t EndVal = Source->eval(End);
  bool Complete = true;
  while (Cur < End) {
    if (CurVal == EndVal) {
      Cur = End; // Flat through End: no further breakpoints.
      break;
    }
    if (Breaks.size() >= MaxBreakpoints) {
      Complete = false; // Table budget exhausted; exact through Cur.
      break;
    }
    Duration Lo = Cur + 1, Hi = End;
    while (Lo < Hi) {
      Duration Mid = Lo + (Hi - Lo) / 2;
      if (Source->eval(Mid) > CurVal)
        Hi = Mid;
      else
        Lo = Mid + 1;
    }
    Cur = Lo;
    CurVal = Source->eval(Lo);
    Breaks.push_back(Lo);
    Vals.push_back(CurVal);
  }
  Covered = Complete ? End : Breaks.back();

  if (Tail && Complete && Covered == satAdd(Tail->From, Tail->Period) &&
      Tail->ValidTo >= Covered) {
    HasTail = true;
    TailPeriod = Tail->Period;
    TailIncrement = Tail->Increment;
    TailValidTo = Tail->ValidTo;
  }

  if (Complete && Covered < DenseLimit) {
    DenseVals.resize(static_cast<std::size_t>(Covered) + 1);
    std::size_t B = 0;
    for (Duration D = 0; D <= Covered; ++D) {
      while (B + 1 < Breaks.size() && Breaks[B + 1] <= D)
        ++B;
      DenseVals[static_cast<std::size_t>(D)] = Vals[B];
    }
  }
}

std::uint64_t FlatCurveTable::evalSource(Duration Delta) const {
  return Source->eval(Delta);
}

FlatReleaseSet::FlatReleaseSet(const std::vector<ArrivalCurvePtr> &Alphas,
                               Duration ShiftIn, Duration Horizon)
    : Shift(ShiftIn) {
  Tables.reserve(Alphas.size());
  Duration ShiftedHorizon = satAdd(Horizon, Shift);
  for (const ArrivalCurvePtr &A : Alphas)
    Tables.emplace_back(A, ShiftedHorizon);
}
