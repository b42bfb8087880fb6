//===- analysis/dataflow/interval.h - Value-interval abstract domain ------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interval lattice the value-range analysis (analyses.h) runs on:
/// each register is a closed interval [Lo, Hi] over the Value (int64)
/// range, with INT64_MIN / INT64_MAX doubling as the -inf / +inf of a
/// widened bound. Arithmetic is evaluated in 128-bit so a bound that
/// escapes the representable range is *observed*, not wrapped — that
/// observation is exactly the static signed-overflow check, mirroring
/// the interpreter's __builtin_*_overflow traps (caesium/interp.h).
/// The deliberate conflation of "widened to infinity" with "actually
/// INT64_MAX" is conservative: a genuinely unbounded operand in an
/// addition reports may-overflow, never the reverse.
///
/// RangeDomain is the engine Domain over states assigning an interval
/// to every register. Branch edges refine: on `r < c` the true edge
/// clips r to (-inf, c-1] and the false edge to [c, +inf), etc.; a
/// refinement that empties an interval marks the edge infeasible
/// (bottom), which is what the dead-code instance consumes.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ANALYSIS_DATAFLOW_INTERVAL_H
#define RPROSA_ANALYSIS_DATAFLOW_INTERVAL_H

#include "analysis/dataflow/engine.h"
#include "support/small_vec.h"

#include <cstdint>
#include <string>

namespace rprosa::analysis::dataflow {

/// A closed interval [Lo, Hi] of int64 values; Lo <= Hi always.
/// INT64_MIN as Lo and INT64_MAX as Hi act as -inf / +inf.
struct ValueInterval {
  caesium::Value Lo = INT64_MIN;
  caesium::Value Hi = INT64_MAX;

  static ValueInterval top() { return {}; }
  static ValueInterval constant(caesium::Value V) { return {V, V}; }
  static ValueInterval range(caesium::Value Lo, caesium::Value Hi) {
    return {Lo, Hi};
  }

  bool isConstant() const { return Lo == Hi; }
  bool contains(caesium::Value V) const { return Lo <= V && V <= Hi; }
  /// Entirely inside [L, H]?
  bool within(caesium::Value L, caesium::Value H) const {
    return L <= Lo && Hi <= H;
  }

  bool operator==(const ValueInterval &O) const = default;

  /// Hull; returns true iff this grew.
  bool joinWith(const ValueInterval &O);
  /// Standard widening: a bound that grew jumps to its infinity.
  bool widenWith(const ValueInterval &O);
  /// Intersection; empty results are reported via the return (false =
  /// empty, *this unspecified).
  bool meetWith(const ValueInterval &O);

  std::string str() const;
};

/// Flags raised while evaluating one operation over intervals. "May"
/// means some corner of the operand intervals trips the check; "Def"
/// means every point does.
struct RangeFlags {
  bool MayOverflow = false;
  bool DefOverflow = false;
  bool MayDivZero = false;
  bool DefDivZero = false;
};

ValueInterval intervalAdd(ValueInterval A, ValueInterval B, RangeFlags &F);
ValueInterval intervalSub(ValueInterval A, ValueInterval B, RangeFlags &F);
ValueInterval intervalDiv(ValueInterval A, ValueInterval B, RangeFlags &F);
ValueInterval intervalMod(ValueInterval A, ValueInterval B, RangeFlags &F);

/// Per-node state of the range analysis: reachability plus one
/// interval per register. The default machine's 8 registers fit
/// inline, so a solve over such a program allocates no block per node.
struct RangeState {
  bool Reachable = false;
  SmallVec<ValueInterval, 8> Regs;

  bool operator==(const RangeState &O) const = default;
};

/// Evaluates \p E over \p S's registers, accumulating overflow /
/// div-by-zero flags for the expression's own operations into \p F.
ValueInterval evalInterval(const caesium::Expr &E, const RangeState &S,
                           RangeFlags &F);

/// The engine Domain. Entry boundary: all registers [0, 0] (the
/// machine zero-fills — interp.h). Read results are [-1, 2^32-1]
/// (failure sentinel or a uint32 payload length), Dequeue results
/// [0, 1].
class RangeDomain {
public:
  using State = RangeState;

  explicit RangeDomain(std::uint32_t NumRegs) : NumRegs(NumRegs) {}

  State bottom(const Cfg &) const;
  State boundary(const Cfg &) const;
  bool join(State &Into, const State &From) const;
  bool widen(State &Into, const State &From) const;
  void transfer(const Cfg &G, NodeId N, const State &In, State &Out) const;
  void transferEdge(const Cfg &G, NodeId From, NodeId To, const State &Out,
                    State &Edge) const;

private:
  std::uint32_t NumRegs;
};

/// Clips \p S by the branch condition \p E being \p WantTrue. Returns
/// false iff the refinement is contradictory (edge infeasible); \p S
/// is then unspecified. Only register-vs-expression comparisons
/// refine; everything else is a no-op.
bool refineByCondition(const caesium::Expr &E, bool WantTrue, RangeState &S);

} // namespace rprosa::analysis::dataflow

#endif // RPROSA_ANALYSIS_DATAFLOW_INTERVAL_H
