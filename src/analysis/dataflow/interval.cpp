//===- analysis/dataflow/interval.cpp -------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/dataflow/interval.h"

#include <algorithm>
#include <optional>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::analysis::dataflow;
using namespace rprosa::caesium;

bool ValueInterval::joinWith(const ValueInterval &O) {
  bool Changed = false;
  if (O.Lo < Lo) {
    Lo = O.Lo;
    Changed = true;
  }
  if (O.Hi > Hi) {
    Hi = O.Hi;
    Changed = true;
  }
  return Changed;
}

bool ValueInterval::widenWith(const ValueInterval &O) {
  bool Changed = false;
  if (O.Lo < Lo) {
    Lo = INT64_MIN;
    Changed = true;
  }
  if (O.Hi > Hi) {
    Hi = INT64_MAX;
    Changed = true;
  }
  return Changed;
}

bool ValueInterval::meetWith(const ValueInterval &O) {
  Lo = std::max(Lo, O.Lo);
  Hi = std::min(Hi, O.Hi);
  return Lo <= Hi;
}

std::string ValueInterval::str() const {
  std::string L = Lo == INT64_MIN ? "-inf" : std::to_string(Lo);
  std::string H = Hi == INT64_MAX ? "+inf" : std::to_string(Hi);
  return "[" + L + ", " + H + "]";
}

namespace {

/// Clamps a 128-bit bound pair into the int64 interval, flagging the
/// escape as overflow: "may" when a corner escapes, "def" when the
/// whole interval lies outside the representable range.
ValueInterval clamp128(I128 Lo, I128 Hi, RangeFlags &F) {
  constexpr I128 Min = INT64_MIN, Max = INT64_MAX;
  if (Lo < Min || Hi > Max)
    F.MayOverflow = true;
  if (Hi < Min || Lo > Max)
    F.DefOverflow = true;
  Lo = std::clamp<I128>(Lo, Min, Max);
  Hi = std::clamp<I128>(Hi, Min, Max);
  return {static_cast<Value>(Lo), static_cast<Value>(Hi)};
}

} // namespace

ValueInterval rprosa::analysis::dataflow::intervalAdd(ValueInterval A,
                                                      ValueInterval B,
                                                      RangeFlags &F) {
  return clamp128(static_cast<I128>(A.Lo) + B.Lo,
                  static_cast<I128>(A.Hi) + B.Hi, F);
}

ValueInterval rprosa::analysis::dataflow::intervalSub(ValueInterval A,
                                                      ValueInterval B,
                                                      RangeFlags &F) {
  return clamp128(static_cast<I128>(A.Lo) - B.Hi,
                  static_cast<I128>(A.Hi) - B.Lo, F);
}

ValueInterval rprosa::analysis::dataflow::intervalDiv(ValueInterval A,
                                                      ValueInterval B,
                                                      RangeFlags &F) {
  if (B.contains(0)) {
    F.MayDivZero = true;
    if (B.isConstant()) {
      F.DefDivZero = true;
      return ValueInterval::top(); // No defined result at all.
    }
  }
  if (A.contains(INT64_MIN) && B.contains(-1)) {
    F.MayOverflow = true;
    if (A.isConstant() && B.isConstant())
      F.DefOverflow = true;
  }
  // Corner-evaluate over the divisor's nonzero sub-ranges; 128-bit
  // division so the one escaping quotient (INT64_MIN / -1) is clamped,
  // not wrapped.
  I128 Lo = 0, Hi = 0;
  bool Any = false;
  auto Consider = [&](Value D) {
    for (Value N : {A.Lo, A.Hi}) {
      I128 Q = static_cast<I128>(N) / D;
      if (!Any || Q < Lo)
        Lo = Q;
      if (!Any || Q > Hi)
        Hi = Q;
      Any = true;
    }
  };
  if (B.Lo <= -1)
    for (Value D : {B.Lo, std::min<Value>(B.Hi, -1)})
      Consider(D);
  if (B.Hi >= 1)
    for (Value D : {std::max<Value>(B.Lo, 1), B.Hi})
      Consider(D);
  if (!Any)
    return ValueInterval::top();
  RangeFlags Ignore; // The trap was already flagged above.
  return clamp128(Lo, Hi, Ignore);
}

ValueInterval rprosa::analysis::dataflow::intervalMod(ValueInterval A,
                                                      ValueInterval B,
                                                      RangeFlags &F) {
  if (B.contains(0)) {
    F.MayDivZero = true;
    if (B.isConstant()) {
      F.DefDivZero = true;
      return ValueInterval::top();
    }
  }
  if (A.contains(INT64_MIN) && B.contains(-1)) {
    F.MayOverflow = true;
    if (A.isConstant() && B.isConstant())
      F.DefOverflow = true;
  }
  // |a % b| < |b| and the sign follows the dividend (C11 truncation).
  I128 Mag = 0;
  for (Value D : {B.Lo, B.Hi}) {
    I128 AbsD = D < 0 ? -static_cast<I128>(D) : static_cast<I128>(D);
    Mag = std::max(Mag, AbsD);
  }
  if (Mag == 0)
    return ValueInterval::top();
  I128 Lo = -(Mag - 1), Hi = Mag - 1;
  if (A.Lo >= 0)
    Lo = 0;
  if (A.Hi <= 0)
    Hi = 0;
  RangeFlags Ignore;
  return clamp128(Lo, Hi, Ignore);
}

ValueInterval
rprosa::analysis::dataflow::evalInterval(const Expr &E, const RangeState &S,
                                         RangeFlags &F) {
  switch (E.K) {
  case Expr::Kind::Lit:
    return ValueInterval::constant(E.Lit);
  case Expr::Kind::Reg:
    return E.Reg < S.Regs.size() ? S.Regs[E.Reg] : ValueInterval::top();
  case Expr::Kind::Add:
    return intervalAdd(evalInterval(*E.L, S, F), evalInterval(*E.R, S, F),
                       F);
  case Expr::Kind::Sub:
    return intervalSub(evalInterval(*E.L, S, F), evalInterval(*E.R, S, F),
                       F);
  case Expr::Kind::Div:
    return intervalDiv(evalInterval(*E.L, S, F), evalInterval(*E.R, S, F),
                       F);
  case Expr::Kind::Mod:
    return intervalMod(evalInterval(*E.L, S, F), evalInterval(*E.R, S, F),
                       F);
  case Expr::Kind::Less: {
    ValueInterval L = evalInterval(*E.L, S, F);
    ValueInterval R = evalInterval(*E.R, S, F);
    if (L.Hi < R.Lo)
      return ValueInterval::constant(1);
    if (L.Lo >= R.Hi)
      return ValueInterval::constant(0);
    return ValueInterval::range(0, 1);
  }
  case Expr::Kind::Eq: {
    ValueInterval L = evalInterval(*E.L, S, F);
    ValueInterval R = evalInterval(*E.R, S, F);
    if (L.isConstant() && R.isConstant())
      return ValueInterval::constant(L.Lo == R.Lo ? 1 : 0);
    if (L.Hi < R.Lo || R.Hi < L.Lo)
      return ValueInterval::constant(0);
    return ValueInterval::range(0, 1);
  }
  case Expr::Kind::Not: {
    ValueInterval L = evalInterval(*E.L, S, F);
    if (L.isConstant() && L.Lo == 0)
      return ValueInterval::constant(1);
    if (!L.contains(0))
      return ValueInterval::constant(0);
    return ValueInterval::range(0, 1);
  }
  case Expr::Kind::Fuel:
    return ValueInterval::range(0, 1);
  }
  return ValueInterval::top();
}

RangeState RangeDomain::bottom(const Cfg &) const { return {}; }

RangeState RangeDomain::boundary(const Cfg &) const {
  RangeState S;
  S.Reachable = true;
  // The machine zero-fills its registers (interp.h).
  S.Regs.assign(NumRegs, ValueInterval::constant(0));
  return S;
}

bool RangeDomain::join(RangeState &Into, const RangeState &From) const {
  if (!From.Reachable)
    return false;
  if (!Into.Reachable) {
    Into = From;
    return true;
  }
  bool Changed = false;
  for (std::size_t R = 0; R < Into.Regs.size() && R < From.Regs.size(); ++R)
    Changed |= Into.Regs[R].joinWith(From.Regs[R]);
  return Changed;
}

bool RangeDomain::widen(RangeState &Into, const RangeState &From) const {
  if (!From.Reachable)
    return false;
  if (!Into.Reachable) {
    Into = From;
    return true;
  }
  bool Changed = false;
  for (std::size_t R = 0; R < Into.Regs.size() && R < From.Regs.size(); ++R)
    Changed |= Into.Regs[R].widenWith(From.Regs[R]);
  return Changed;
}

void RangeDomain::transfer(const Cfg &G, NodeId N, const RangeState &In,
                           RangeState &Out) const {
  Out.Reachable = In.Reachable;
  if (!In.Reachable)
    return;
  Out.Regs = In.Regs;
  const CfgNode &Node = G[N];
  switch (Node.K) {
  case CfgNode::Kind::Assign: {
    RangeFlags F; // Findings are recomputed in the reporting sweep.
    ValueInterval V = evalInterval(*Node.E, In, F);
    if (Node.Dst < Out.Regs.size())
      Out.Regs[Node.Dst] = V;
    break;
  }
  case CfgNode::Kind::Read:
    // Failure sentinel -1, or a payload length (uint32 in Message).
    if (Node.Dst < Out.Regs.size())
      Out.Regs[Node.Dst] = ValueInterval::range(-1, 4294967295);
    break;
  case CfgNode::Kind::Dequeue:
    if (Node.Dst < Out.Regs.size())
      Out.Regs[Node.Dst] = ValueInterval::range(0, 1);
    break;
  default:
    break;
  }
}

void RangeDomain::transferEdge(const Cfg &G, NodeId From, NodeId To,
                               const RangeState &Out,
                               RangeState &Edge) const {
  Edge.Reachable = Out.Reachable;
  if (!Out.Reachable)
    return;
  Edge.Regs = Out.Regs;
  const CfgNode &B = G[From];
  if (B.K != CfgNode::Kind::Branch || !B.E || B.Succ == B.FalseSucc)
    return;
  if (!refineByCondition(*B.E, To == B.Succ, Edge))
    Edge.Reachable = false; // Contradictory: the edge is infeasible.
}

namespace {

std::optional<RegId> asReg(const Expr &E) {
  if (E.K == Expr::Kind::Reg)
    return E.Reg;
  return std::nullopt;
}

bool meetReg(RangeState &S, RegId R, ValueInterval I) {
  if (R >= S.Regs.size())
    return true;
  return S.Regs[R].meetWith(I);
}

} // namespace

bool rprosa::analysis::dataflow::refineByCondition(const Expr &E,
                                                   bool WantTrue,
                                                   RangeState &S) {
  RangeFlags F;
  switch (E.K) {
  case Expr::Kind::Not:
    return refineByCondition(*E.L, !WantTrue, S);

  case Expr::Kind::Lit:
    return WantTrue ? E.Lit != 0 : E.Lit == 0;

  case Expr::Kind::Reg: {
    ValueInterval I =
        E.Reg < S.Regs.size() ? S.Regs[E.Reg] : ValueInterval::top();
    if (!WantTrue)
      return meetReg(S, E.Reg, ValueInterval::constant(0));
    // r != 0: only the endpoints can be trimmed.
    if (I.isConstant() && I.Lo == 0)
      return false;
    if (I.Lo == 0)
      I.Lo = 1;
    if (I.Hi == 0)
      I.Hi = -1;
    return meetReg(S, E.Reg, I);
  }

  case Expr::Kind::Less: {
    ValueInterval L = evalInterval(*E.L, S, F);
    ValueInterval R = evalInterval(*E.R, S, F);
    std::optional<RegId> LR = asReg(*E.L), RR = asReg(*E.R);
    if (WantTrue) {
      if (L.Lo >= R.Hi)
        return false; // L < R unsatisfiable.
      if (LR && R.Hi != INT64_MIN &&
          !meetReg(S, *LR, ValueInterval::range(INT64_MIN, R.Hi - 1)))
        return false;
      if (RR && L.Lo != INT64_MAX &&
          !meetReg(S, *RR, ValueInterval::range(L.Lo + 1, INT64_MAX)))
        return false;
      return true;
    }
    if (L.Hi < R.Lo)
      return false; // L >= R unsatisfiable.
    if (LR && !meetReg(S, *LR, ValueInterval::range(R.Lo, INT64_MAX)))
      return false;
    if (RR && !meetReg(S, *RR, ValueInterval::range(INT64_MIN, L.Hi)))
      return false;
    return true;
  }

  case Expr::Kind::Eq: {
    ValueInterval L = evalInterval(*E.L, S, F);
    ValueInterval R = evalInterval(*E.R, S, F);
    std::optional<RegId> LR = asReg(*E.L), RR = asReg(*E.R);
    if (WantTrue) {
      if (L.Hi < R.Lo || R.Hi < L.Lo)
        return false;
      if (LR && !meetReg(S, *LR, R))
        return false;
      if (RR && !meetReg(S, *RR, L))
        return false;
      return true;
    }
    if (L.isConstant() && R.isConstant())
      return L.Lo != R.Lo;
    // Disequality only trims a register's endpoint against a constant.
    auto TrimNe = [&S](RegId Reg, Value C) {
      if (Reg >= S.Regs.size())
        return true;
      ValueInterval &I = S.Regs[Reg];
      if (I.isConstant())
        return I.Lo != C;
      if (I.Lo == C)
        ++I.Lo;
      else if (I.Hi == C)
        --I.Hi;
      return I.Lo <= I.Hi;
    };
    if (LR && R.isConstant())
      return TrimNe(*LR, R.Lo);
    if (RR && L.isConstant())
      return TrimNe(*RR, L.Lo);
    return true;
  }

  default:
    return true; // Arithmetic or Fuel conditions: no refinement.
  }
}
