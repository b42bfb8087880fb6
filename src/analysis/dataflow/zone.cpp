//===- analysis/dataflow/zone.cpp -----------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/dataflow/zone.h"

#include <algorithm>
#include <map>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::analysis::dataflow;
using namespace rprosa::caesium;

namespace {

/// Bounds clamp low here instead of wrapping: raising a very negative
/// bound toward zero only loosens the constraint (sound), and keeps
/// every later 128-bit sum far from the int64 edges.
constexpr std::int64_t ZoneNegClamp = -(std::int64_t{1} << 62);

std::int64_t clampBound(I128 S) {
  if (S >= ZoneInf)
    return ZoneInf;
  if (S < ZoneNegClamp)
    return ZoneNegClamp;
  return static_cast<std::int64_t>(S);
}

std::int64_t satAdd(std::int64_t A, I128 B) {
  if (A == ZoneInf || B >= ZoneInf)
    return ZoneInf;
  return clampBound(static_cast<I128>(A) + B);
}

} // namespace

Zone::Zone(std::uint32_t NumVars)
    : N(NumVars == 0 ? 1 : NumVars),
      M(static_cast<std::size_t>(N) * N, ZoneInf) {
  for (std::uint32_t I = 0; I < N; ++I)
    at(I, I) = 0;
}

void Zone::close() const {
  if (Closed || Empty)
    return;
  for (std::uint32_t K = 0; K < N; ++K)
    for (std::uint32_t I = 0; I < N; ++I) {
      if (at(I, K) == ZoneInf)
        continue;
      for (std::uint32_t J = 0; J < N; ++J) {
        std::int64_t Via = satAdd(at(I, K), at(K, J));
        if (Via < at(I, J))
          at(I, J) = Via;
      }
    }
  for (std::uint32_t I = 0; I < N; ++I) {
    if (at(I, I) < 0) {
      Empty = true;
      break;
    }
    at(I, I) = 0;
  }
  Closed = true;
}

bool Zone::isEmpty() const {
  close();
  return Empty;
}

bool Zone::constrain(std::uint32_t I, std::uint32_t J, std::int64_t C) {
  close();
  if (Empty)
    return false;
  if (I == J) {
    if (C < 0)
      Empty = true;
    return !Empty;
  }
  if (C >= at(I, J))
    return true;
  // Feasibility first: a cycle I -> J -> I must stay non-negative.
  if (satAdd(at(J, I), C) < 0) {
    Empty = true;
    return false;
  }
  at(I, J) = C;
  // Incremental closure: every path may now be shorter through the new
  // edge I -> J.
  for (std::uint32_t P = 0; P < N; ++P) {
    if (at(P, I) == ZoneInf)
      continue;
    std::int64_t Head = satAdd(at(P, I), C);
    for (std::uint32_t Q = 0; Q < N; ++Q) {
      std::int64_t Via = satAdd(Head, at(J, Q));
      if (Via < at(P, Q))
        at(P, Q) = Via;
    }
  }
  for (std::uint32_t P = 0; P < N; ++P)
    at(P, P) = 0;
  return true;
}

bool Zone::constrainWide(std::uint32_t I, std::uint32_t J, I128 C) {
  if (C >= ZoneInf)
    return !isEmpty();
  return constrain(I, J, clampBound(C));
}

void Zone::forget(std::uint32_t I) {
  close();
  if (Empty)
    return;
  for (std::uint32_t J = 0; J < N; ++J) {
    if (J == I)
      continue;
    at(I, J) = ZoneInf;
    at(J, I) = ZoneInf;
  }
  // Dropping constraints from a closed matrix keeps it closed.
}

void Zone::setConst(std::uint32_t I, std::int64_t C) {
  forget(I);
  constrainWide(I, 0, C);
  constrainWide(0, I, -static_cast<I128>(C));
}

void Zone::shift(std::uint32_t I, I128 C) {
  close();
  if (Empty)
    return;
  for (std::uint32_t J = 0; J < N; ++J) {
    if (J == I)
      continue;
    at(I, J) = satAdd(at(I, J), C);
    at(J, I) = satAdd(at(J, I), -C);
  }
}

void Zone::setCopyShift(std::uint32_t I, std::uint32_t J, I128 C) {
  if (I == J) {
    shift(I, C);
    return;
  }
  forget(I);
  constrainWide(I, J, C);
  constrainWide(J, I, -C);
}

bool Zone::joinWith(const Zone &O) {
  O.close();
  if (O.Empty)
    return false;
  close();
  if (Empty) {
    *this = O;
    return true;
  }
  bool Changed = false;
  for (std::size_t I = 0; I < M.size(); ++I)
    if (O.M[I] > M[I]) {
      M[I] = O.M[I];
      Changed = true;
    }
  // Pointwise max of two closed matrices is closed.
  return Changed;
}

bool Zone::widenWith(const Zone &O) {
  O.close();
  if (O.Empty)
    return false;
  if (isEmpty()) {
    *this = O;
    return true;
  }
  bool Changed = false;
  for (std::size_t I = 0; I < M.size(); ++I)
    if (O.M[I] > M[I] && M[I] != ZoneInf) {
      M[I] = ZoneInf;
      Changed = true;
    }
  if (Changed)
    Closed = false;
  return Changed;
}

std::int64_t Zone::lo(std::uint32_t I) const {
  close();
  std::int64_t B = at(0, I);
  return B == ZoneInf ? INT64_MIN : -B;
}

std::int64_t Zone::hi(std::uint32_t I) const {
  close();
  return at(I, 0);
}

bool Zone::operator==(const Zone &O) const {
  close();
  O.close();
  if (Empty || O.Empty)
    return Empty == O.Empty && N == O.N;
  return N == O.N && M == O.M;
}

//===----------------------------------------------------------------------===//
// Affine difference forms over expressions
//===----------------------------------------------------------------------===//

namespace {

struct LinAcc {
  std::map<std::uint32_t, int> Coeff;
  I128 K = 0;
};

bool linOf(const Expr &E, int Sign, LinAcc &A) {
  switch (E.K) {
  case Expr::Kind::Lit:
    A.K += static_cast<I128>(Sign) * E.Lit;
    return true;
  case Expr::Kind::Reg:
    A.Coeff[E.Reg + 1] += Sign;
    return true;
  case Expr::Kind::Add:
    return linOf(*E.L, Sign, A) && linOf(*E.R, Sign, A);
  case Expr::Kind::Sub:
    return linOf(*E.L, Sign, A) && linOf(*E.R, -Sign, A);
  default:
    return false;
  }
}

DiffExpr diffOfAcc(const LinAcc &A) {
  DiffExpr D;
  std::uint32_t Pos = 0, Neg = 0;
  for (const auto &[Var, C] : A.Coeff) {
    if (C == 0)
      continue;
    if (C == 1 && Pos == 0)
      Pos = Var;
    else if (C == -1 && Neg == 0)
      Neg = Var;
    else
      return D; // A coefficient outside {-1, 0, 1}: not a zone form.
  }
  D.Ok = true;
  D.Pos = Pos;
  D.Neg = Neg;
  D.K = A.K;
  return D;
}

} // namespace

DiffExpr rprosa::analysis::dataflow::diffExprOf(const Expr &E) {
  LinAcc A;
  if (!linOf(E, 1, A))
    return {};
  return diffOfAcc(A);
}

DiffExpr rprosa::analysis::dataflow::diffExprOfPair(const Expr &L,
                                                    const Expr &R) {
  LinAcc A;
  if (!linOf(L, 1, A) || !linOf(R, -1, A))
    return {};
  return diffOfAcc(A);
}

bool rprosa::analysis::dataflow::constrainDiffLe(Zone &Z, const DiffExpr &D,
                                                 I128 C) {
  if (!D.Ok)
    return !Z.isEmpty();
  return Z.constrainWide(D.Pos, D.Neg, C - D.K);
}

bool rprosa::analysis::dataflow::constrainDiffGe(Zone &Z, const DiffExpr &D,
                                                 I128 C) {
  if (!D.Ok)
    return !Z.isEmpty();
  return Z.constrainWide(D.Neg, D.Pos, D.K - C);
}

bool rprosa::analysis::dataflow::refineZoneByCondition(Zone &Z, const Expr &E,
                                                       bool WantTrue) {
  switch (E.K) {
  case Expr::Kind::Not:
    return refineZoneByCondition(Z, *E.L, !WantTrue);
  case Expr::Kind::Lit:
    return (E.Lit != 0) == WantTrue;
  case Expr::Kind::Less: {
    DiffExpr D = diffExprOfPair(*E.L, *E.R);
    if (!D.Ok)
      return true;
    // L < R  <=>  lin(L) - lin(R) <= -1; negation: >= 0.
    return WantTrue ? constrainDiffLe(Z, D, -1) : constrainDiffGe(Z, D, 0);
  }
  case Expr::Kind::Eq: {
    if (!WantTrue)
      return true; // != is not zone-expressible.
    DiffExpr D = diffExprOfPair(*E.L, *E.R);
    if (!D.Ok)
      return true;
    return constrainDiffLe(Z, D, 0) && constrainDiffGe(Z, D, 0);
  }
  default: {
    // An affine condition used as a boolean: false pins it to zero.
    if (WantTrue)
      return true;
    DiffExpr D = diffExprOf(E);
    if (!D.Ok)
      return true;
    return constrainDiffLe(Z, D, 0) && constrainDiffGe(Z, D, 0);
  }
  }
}

void rprosa::analysis::dataflow::applyZoneAssign(Zone &Z, RegId Dst,
                                                 const Expr &E) {
  std::uint32_t V = Dst + 1;
  DiffExpr D = diffExprOf(E);
  if (D.Ok && D.Neg == 0) {
    if (D.Pos == V) {
      Z.shift(V, D.K);
      return;
    }
    if (D.Pos == 0) {
      Z.forget(V);
      Z.constrainWide(V, 0, D.K);
      Z.constrainWide(0, V, -D.K);
      return;
    }
    Z.setCopyShift(V, D.Pos, D.K);
    return;
  }
  Z.forget(V);
  switch (E.K) {
  case Expr::Kind::Less:
  case Expr::Kind::Eq:
  case Expr::Kind::Not:
  case Expr::Kind::Fuel:
    // Booleans and the fuel check land in {0, 1}.
    Z.constrain(V, 0, 1);
    Z.constrain(0, V, 0);
    break;
  default:
    break;
  }
}

//===----------------------------------------------------------------------===//
// ZoneDomain: the engine instance
//===----------------------------------------------------------------------===//

ZoneDomain::State ZoneDomain::boundary(const Cfg &) const {
  State S{true, Zone(NumRegs + 1)};
  for (std::uint32_t R = 0; R < NumRegs; ++R)
    S.Z.setConst(R + 1, 0);
  return S;
}

bool ZoneDomain::join(State &Into, const State &From) const {
  if (!From.Reachable)
    return false;
  if (!Into.Reachable) {
    Into = From;
    return true;
  }
  return Into.Z.joinWith(From.Z);
}

bool ZoneDomain::widen(State &Into, const State &From) const {
  if (!From.Reachable)
    return false;
  if (!Into.Reachable) {
    Into = From;
    return true;
  }
  return Into.Z.widenWith(From.Z);
}

void ZoneDomain::transfer(const Cfg &G, NodeId N, const State &In,
                          State &Out) const {
  Out.Reachable = In.Reachable;
  if (!In.Reachable)
    return;
  Out.Z = In.Z;
  const CfgNode &Node = G[N];
  switch (Node.K) {
  case CfgNode::Kind::Assign:
    if (Node.E)
      applyZoneAssign(Out.Z, Node.Dst, *Node.E);
    break;
  case CfgNode::Kind::Read: {
    // Trap-free continuations have the socket register in range (the
    // machine halts before writing the result otherwise).
    std::uint32_t SockV = Node.Reg + 1;
    bool Feasible =
        Out.Z.constrainWide(SockV, 0,
                            static_cast<I128>(NumSockets) - 1) &&
        Out.Z.constrainWide(0, SockV, 0);
    std::uint32_t D = Node.Dst + 1;
    Out.Z.forget(D);
    Out.Z.constrainWide(D, 0, static_cast<I128>(UINT32_MAX));
    Out.Z.constrain(0, D, 1); // result >= -1
    if (!Feasible)
      Out.Reachable = false;
    break;
  }
  case CfgNode::Kind::Dequeue: {
    std::uint32_t D = Node.Dst + 1;
    Out.Z.forget(D);
    Out.Z.constrain(D, 0, 1);
    Out.Z.constrain(0, D, 0);
    break;
  }
  default:
    break;
  }
}

void ZoneDomain::transferEdge(const Cfg &G, NodeId From, NodeId To,
                              const State &Out, State &Edge) const {
  Edge.Reachable = Out.Reachable;
  if (!Out.Reachable)
    return;
  Edge.Z = Out.Z;
  const CfgNode &N = G[From];
  if (N.K != CfgNode::Kind::Branch || !N.E || N.Succ == N.FalseSucc)
    return;
  if (!refineZoneByCondition(Edge.Z, *N.E, To == N.Succ) || Edge.Z.isEmpty())
    Edge.Reachable = false;
}
