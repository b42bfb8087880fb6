//===- analysis/dataflow/zone.h - Difference-bound (zone) domain ----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The relational refinement layer under the witness machinery
/// (witness.h): a difference-bound matrix (DBM) over program variables,
/// i.e. the zone abstract domain. Where the interval domain (interval.h)
/// tracks each register in isolation, a Zone tracks every pairwise
/// difference x_i - x_j <= c — enough to prove facts like
/// "r7 - r2 == 1 here", which is exactly what separates a real May
/// finding from an interval artifact.
///
/// Representation: variable 0 is the constant-zero variable, register r
/// is variable r + 1, and callers may append further variables (the
/// path executor uses them for scripted read payloads). Entry M[i][j]
/// is the tightest known upper bound on x_i - x_j (ZoneInf = unbounded),
/// so M[i][0] is x_i's upper bound and -M[0][i] its lower bound.
/// Closure is Floyd-Warshall shortest paths; a negative diagonal means
/// the constraint system is unsatisfiable (the empty zone).
///
/// Bound arithmetic saturates: sums that escape int64 clamp to ZoneInf
/// above and to -(2^62) below. Both clamps *loosen* the constraint they
/// land on, so the abstraction stays sound — saturation can lose an
/// infeasibility proof, never fabricate one (witness.cpp's suppression
/// rule leans on this; the confirmation rule is independently validated
/// by interpreter replay).
///
/// ZoneDomain instantiates the worklist engine (engine.h) with
/// ZoneState = reachability flag + Zone over the registers: affine
/// assignments transfer exactly, reads and dequeues havoc their
/// destination into the machine's documented result range, and branch
/// edges refine by the condition's affine difference form. Widening
/// pushes any bound that grew to ZoneInf, mirroring the interval rule.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ANALYSIS_DATAFLOW_ZONE_H
#define RPROSA_ANALYSIS_DATAFLOW_ZONE_H

#include "analysis/dataflow/engine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rprosa::analysis::dataflow {

/// The +infinity sentinel of a DBM entry (no bound known).
inline constexpr std::int64_t ZoneInf = INT64_MAX;

/// A closed-on-demand difference-bound matrix. Copyable; all mutators
/// keep the matrix canonical (closed) except widenWith, which leaves it
/// dirty on purpose — re-closing a widened state can tighten bounds
/// back and defeat termination, so closure is deferred to the next
/// query.
class Zone {
public:
  /// The zone over \p NumVars variables (index 0 = the zero variable)
  /// with no constraints (top).
  explicit Zone(std::uint32_t NumVars = 1);

  /// True iff the constraint system is unsatisfiable.
  bool isEmpty() const;

  /// Adds x_I - x_J <= C. Returns false iff the zone became (or was)
  /// empty.
  bool constrain(std::uint32_t I, std::uint32_t J, std::int64_t C);

  /// constrain() with a wide bound: C >= ZoneInf is a no-op (trivially
  /// true), C below the negative clamp is loosened up to it.
  bool constrainWide(std::uint32_t I, std::uint32_t J, I128 C);

  /// Drops every constraint mentioning x_I (havoc).
  void forget(std::uint32_t I);

  /// x_I := C.
  void setConst(std::uint32_t I, std::int64_t C);

  /// x_I := x_I + C (exact shift of every bound involving x_I).
  void shift(std::uint32_t I, I128 C);

  /// x_I := x_J + C, I != J.
  void setCopyShift(std::uint32_t I, std::uint32_t J, I128 C);

  /// Convex-hull join (pointwise max of closed matrices). Returns true
  /// iff this zone grew.
  bool joinWith(const Zone &O);

  /// Widening: any bound O grows jumps straight to ZoneInf. Returns
  /// true iff this zone changed.
  bool widenWith(const Zone &O);

  /// x_I's bounds in the closed zone; INT64_MIN / INT64_MAX act as
  /// -inf / +inf (matching the interval domain's convention). The
  /// pointwise lower-bound assignment x_i = lo(i) of a closed non-empty
  /// zone is jointly satisfying (triangle inequality), which is how the
  /// path executor extracts concrete witness inputs.
  std::int64_t lo(std::uint32_t I) const;
  std::int64_t hi(std::uint32_t I) const;

  bool operator==(const Zone &O) const;

private:
  void close() const;
  std::int64_t &at(std::uint32_t I, std::uint32_t J) const {
    return M[static_cast<std::size_t>(I) * N + J];
  }

  std::uint32_t N = 1;
  /// Row-major N*N bound matrix; mutable (with Closed/Empty) because
  /// closure is a query-time canonicalization, not a semantic change.
  mutable std::vector<std::int64_t> M;
  mutable bool Closed = true;
  mutable bool Empty = false;
};

/// An expression reduced to the affine difference form
/// x_Pos - x_Neg + K over DBM variables (0 = the zero variable, i.e.
/// "no variable on that side"); Ok is false when the expression is not
/// of that shape (Div/Mod/comparisons/Fuel, or two variables with the
/// same sign).
struct DiffExpr {
  bool Ok = false;
  std::uint32_t Pos = 0;
  std::uint32_t Neg = 0;
  I128 K = 0;
};

/// \p E as a DiffExpr over register variables (reg r -> var r + 1).
DiffExpr diffExprOf(const caesium::Expr &E);

/// lin(L) - lin(R) as one DiffExpr (the form of every comparison).
DiffExpr diffExprOfPair(const caesium::Expr &L, const caesium::Expr &R);

/// Adds D <= C resp. D >= C to \p Z. Returns false iff infeasible.
bool constrainDiffLe(Zone &Z, const DiffExpr &D, I128 C);
bool constrainDiffGe(Zone &Z, const DiffExpr &D, I128 C);

/// Refines \p Z by the branch condition \p E being \p WantTrue.
/// Returns false iff the refinement is contradictory (edge infeasible);
/// conditions without an affine difference form are no-ops.
bool refineZoneByCondition(Zone &Z, const caesium::Expr &E, bool WantTrue);

/// Applies `reg(Dst) := E`: exact for affine forms, havoc into [0, 1]
/// for comparisons/Fuel, plain havoc otherwise.
void applyZoneAssign(Zone &Z, caesium::RegId Dst, const caesium::Expr &E);

/// Engine state: reachability plus a Zone over the registers.
struct ZoneState {
  bool Reachable = false;
  Zone Z{1};

  bool operator==(const ZoneState &O) const = default;
};

/// The engine Domain (see file comment). Boundary: all registers == 0
/// (the machine zero-fills). After a Read node the socket register is
/// known in [0, NumSockets) — the machine traps otherwise, so no
/// trap-free continuation violates it.
class ZoneDomain {
public:
  using State = ZoneState;

  ZoneDomain(std::uint32_t NumRegs, std::uint32_t NumSockets)
      : NumRegs(NumRegs), NumSockets(NumSockets) {}

  State bottom(const Cfg &) const { return {false, Zone(NumRegs + 1)}; }
  State boundary(const Cfg &) const;
  bool join(State &Into, const State &From) const;
  bool widen(State &Into, const State &From) const;
  void transfer(const Cfg &G, NodeId N, const State &In, State &Out) const;
  void transferEdge(const Cfg &G, NodeId From, NodeId To, const State &Out,
                    State &Edge) const;

private:
  std::uint32_t NumRegs;
  std::uint32_t NumSockets;
};

} // namespace rprosa::analysis::dataflow

#endif // RPROSA_ANALYSIS_DATAFLOW_ZONE_H
