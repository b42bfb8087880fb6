//===- analysis/abstract_state.h - Bounded-register abstraction -----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract domain the verifier explores. A concrete CaesiumMachine
/// state is (registers, heap buffers, σ_trace, scheduler queue); the
/// abstraction keeps:
///
///  - registers as AbsValue: a small constant (|v| ≤ bound), the
///    "unknown but non-negative" value a successful read produces, or
///    Top. Clamping constants to the bound makes the register lattice
///    finite, which — together with the finite protocol-STS key — makes
///    the whole product state space finite, so the search terminates
///    without the Fuel horizon (Fuel evaluates to Top: both loop exits
///    are explored);
///  - buffers as Empty/Full (message *identity* is irrelevant to the
///    protocol; only presence feeds dispatch/enqueue preconditions);
///  - the dispatched-job flag of the machine (CurrentJob present or
///    not); job ids are canonicalised to a single representative, sound
///    because markers emitted between a Dispatch and its Completion
///    always carry the dispatched job (see ProtocolSts::abstractKey);
///  - nothing for the pending queue: Dequeue is branched
///    nondeterministically (hit/miss), a sound over-approximation.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ANALYSIS_ABSTRACT_STATE_H
#define RPROSA_ANALYSIS_ABSTRACT_STATE_H

#include "analysis/cfg.h"

#include "trace/protocol.h"

#include <algorithm>
#include <vector>

namespace rprosa::analysis {

/// Three-valued truth for branch decisions.
enum class AbsBool : std::uint8_t { False, True, Maybe };

/// One abstract register value.
struct AbsValue {
  enum class Kind : std::uint8_t {
    Known,  ///< Exactly V (with |V| ≤ the configured bound).
    NonNeg, ///< Unknown but ≥ 0 (a successful read's payload length).
    Top,    ///< Anything.
  };

  Kind K = Kind::Known;
  caesium::Value V = 0;

  static AbsValue top() { return {Kind::Top, 0}; }
  static AbsValue nonNeg() { return {Kind::NonNeg, 0}; }
  /// A constant, widened to NonNeg/Top when it escapes the bound.
  static AbsValue known(caesium::Value V, caesium::Value Bound);

  bool operator==(const AbsValue &O) const { return K == O.K && V == O.V; }
};

/// The constant-clamping bound of the abstraction for a deployment with
/// \p NumSockets sockets. The polling loop counts a register up to the
/// socket count, and that count must stay Known for the loop exit to be
/// decided, so the bound covers it (and is never below 64).
inline caesium::Value registerBound(std::uint32_t NumSockets) {
  return std::max<caesium::Value>(64, NumSockets);
}

/// Evaluates \p E over abstract registers. Fuel evaluates to Top — the
/// analysis explores both continuing and stopping, covering every
/// finite prefix (the paper's t_hrzn quantification). \p Bound is the
/// constant-clamping bound of the abstraction.
AbsValue evalAbstract(const caesium::Expr &E,
                      const std::vector<AbsValue> &Regs,
                      caesium::Value Bound);

/// The branch decision an abstract value allows.
AbsBool truth(const AbsValue &V);

/// Heap buffer abstraction.
enum class AbsBuf : std::uint8_t { Empty, Full };

/// One product state of the exploration: CFG position × abstract
/// machine state × protocol-acceptor state.
struct AbsState {
  NodeId Node = 0;
  std::vector<AbsValue> Regs;
  std::vector<AbsBuf> Bufs;
  /// The machine's CurrentJob flag (set by TrDisp, cleared by TrCompl).
  bool HasJob = false;
  /// The protocol acceptor, advanced with concretised markers.
  ProtocolSts Sts;

  AbsState(std::uint32_t NumRegs, std::uint32_t NumBufs,
           std::uint32_t NumSockets)
      : Regs(NumRegs), Bufs(NumBufs, AbsBuf::Empty), Sts(NumSockets) {}
};

} // namespace rprosa::analysis

#endif // RPROSA_ANALYSIS_ABSTRACT_STATE_H
