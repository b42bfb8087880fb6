//===- analysis/abstract_state.cpp ----------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/abstract_state.h"

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::caesium;

AbsValue AbsValue::known(Value V, Value Bound) {
  if (V > Bound)
    return nonNeg(); // Still provably ≥ 0.
  if (V < -Bound)
    return top();
  return {Kind::Known, V};
}

AbsBool rprosa::analysis::truth(const AbsValue &V) {
  switch (V.K) {
  case AbsValue::Kind::Known:
    return V.V != 0 ? AbsBool::True : AbsBool::False;
  case AbsValue::Kind::NonNeg: // Could be 0 (false) or positive (true).
  case AbsValue::Kind::Top:
    return AbsBool::Maybe;
  }
  return AbsBool::Maybe;
}

namespace {

AbsValue fromBool(AbsBool B) {
  switch (B) {
  case AbsBool::False:
    return {AbsValue::Kind::Known, 0};
  case AbsBool::True:
    return {AbsValue::Kind::Known, 1};
  case AbsBool::Maybe:
    break;
  }
  // A comparison result is 0/1, hence non-negative even when unknown.
  return AbsValue::nonNeg();
}

bool knownNonNeg(const AbsValue &V) {
  return V.K == AbsValue::Kind::NonNeg ||
         (V.K == AbsValue::Kind::Known && V.V >= 0);
}

} // namespace

AbsValue rprosa::analysis::evalAbstract(const Expr &E,
                                        const std::vector<AbsValue> &Regs,
                                        Value Bound) {
  switch (E.K) {
  case Expr::Kind::Lit:
    return AbsValue::known(E.Lit, Bound);

  case Expr::Kind::Reg:
    return E.Reg < Regs.size() ? Regs[E.Reg] : AbsValue::top();

  case Expr::Kind::Add: {
    AbsValue L = evalAbstract(*E.L, Regs, Bound);
    AbsValue R = evalAbstract(*E.R, Regs, Bound);
    if (L.K == AbsValue::Kind::Known && R.K == AbsValue::Kind::Known)
      return AbsValue::known(L.V + R.V, Bound);
    if (knownNonNeg(L) && knownNonNeg(R))
      return AbsValue::nonNeg();
    return AbsValue::top();
  }

  case Expr::Kind::Sub: {
    AbsValue L = evalAbstract(*E.L, Regs, Bound);
    AbsValue R = evalAbstract(*E.R, Regs, Bound);
    if (L.K == AbsValue::Kind::Known && R.K == AbsValue::Kind::Known)
      return AbsValue::known(L.V - R.V, Bound);
    if (knownNonNeg(L) && R.K == AbsValue::Kind::Known && R.V <= 0)
      return AbsValue::nonNeg();
    return AbsValue::top();
  }

  case Expr::Kind::Div:
  case Expr::Kind::Mod: {
    AbsValue L = evalAbstract(*E.L, Regs, Bound);
    AbsValue R = evalAbstract(*E.R, Regs, Bound);
    // A zero (or possibly-zero) divisor is a runtime trap; the verifier
    // does not model traps — the run just ends, a finite prefix — so
    // Top is the sound abstraction for the would-be result.
    if (L.K == AbsValue::Kind::Known && R.K == AbsValue::Kind::Known &&
        R.V != 0 && !(L.V == INT64_MIN && R.V == -1))
      return AbsValue::known(E.K == Expr::Kind::Div ? L.V / R.V
                                                    : L.V % R.V,
                             Bound);
    if (E.K == Expr::Kind::Div && knownNonNeg(L) && knownNonNeg(R))
      return AbsValue::nonNeg(); // Quotient of non-negatives (if defined).
    return AbsValue::top();
  }

  case Expr::Kind::Less: {
    AbsValue L = evalAbstract(*E.L, Regs, Bound);
    AbsValue R = evalAbstract(*E.R, Regs, Bound);
    if (L.K == AbsValue::Kind::Known && R.K == AbsValue::Kind::Known)
      return fromBool(L.V < R.V ? AbsBool::True : AbsBool::False);
    // NonNeg < c is false for c ≤ 0; c < NonNeg is true for c < 0.
    if (L.K == AbsValue::Kind::NonNeg && R.K == AbsValue::Kind::Known &&
        R.V <= 0)
      return fromBool(AbsBool::False);
    if (L.K == AbsValue::Kind::Known && L.V < 0 &&
        R.K == AbsValue::Kind::NonNeg)
      return fromBool(AbsBool::True);
    return fromBool(AbsBool::Maybe);
  }

  case Expr::Kind::Eq: {
    AbsValue L = evalAbstract(*E.L, Regs, Bound);
    AbsValue R = evalAbstract(*E.R, Regs, Bound);
    if (L.K == AbsValue::Kind::Known && R.K == AbsValue::Kind::Known)
      return fromBool(L.V == R.V ? AbsBool::True : AbsBool::False);
    // The load-bearing case: a successful read's result (NonNeg) is
    // definitely not the failure sentinel -1, so the program's
    // `result == -1` test stays correlated with the read outcome and
    // the abstraction does not explore the contradictory path.
    if (L.K == AbsValue::Kind::NonNeg && R.K == AbsValue::Kind::Known &&
        R.V < 0)
      return fromBool(AbsBool::False);
    if (L.K == AbsValue::Kind::Known && L.V < 0 &&
        R.K == AbsValue::Kind::NonNeg)
      return fromBool(AbsBool::False);
    return fromBool(AbsBool::Maybe);
  }

  case Expr::Kind::Not: {
    AbsValue L = evalAbstract(*E.L, Regs, Bound);
    switch (truth(L)) {
    case AbsBool::False:
      return fromBool(AbsBool::True);
    case AbsBool::True:
      return fromBool(AbsBool::False);
    case AbsBool::Maybe:
      return fromBool(AbsBool::Maybe);
    }
    return fromBool(AbsBool::Maybe);
  }

  case Expr::Kind::Fuel:
    // Nondeterministic: the analysis covers every finite prefix, so the
    // fuel test may pass or fail at any iteration boundary.
    return AbsValue::top();
  }
  return AbsValue::top();
}
