//===- analysis/timing/segment_costs.h - Static segment-cost analysis -----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An abstract-interpretation cost analysis over the lowered program
/// (analysis/cfg.h), in the spirit of "Execution Time Program
/// Verification With Tight Bounds": where the protocol verifier proves
/// the *order* of markers safe, this pass bounds the *time between*
/// them, turning the WCET tables the paper assumes (§2.3) into derived
/// quantities.
///
/// The unit of account is the *marker segment*, delimited exactly as
/// trace/basic_actions.h delimits basic actions at runtime: a segment
/// starts at a Read or Trace node and runs to the next one (or to
/// Exit). Because marker functions record *before* their basic action's
/// clock advance — and a read's M_ReadE coalesces into the Read action —
/// segments tile the observable timeline, so
///
///   observed BasicAction::len() ∈ [Lo, Hi]  of its class's interval
///
/// is the executable soundness statement (checked per run in tests and
/// bench/static_wcet.cpp). A segment's cost is its marker action's
/// sampled duration (floored at 1 tick, capped by the WCET parameter)
/// plus the deterministic InstructionCosts of the non-marker nodes on
/// the path to the next marker. Paths are enumerated by a DFS over
/// abstract register states (analysis/abstract_state.h): constant
/// propagation unrolls counter loops, read/dequeue outcomes fork the
/// walk, and the Fuel test forks into "next iteration" and "exit".
/// Loops a segment could wrap around forever are classified by
/// timing/loop_bounds.h; a non-benign cycle yields Hi = TimeInfinity
/// with a diagnostic instead of a wrong bound.
///
/// Trusted base: the WCET parameters of the basic actions (the paper's
/// §2.3 assumption), the InstructionCosts table, and the CFG lowering.
/// The pass proves nothing about runs under the fault-injecting
/// CostModelKind::ViolatingOccasionally — exactly the runs
/// checkWcetRespected flags.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ANALYSIS_TIMING_SEGMENT_COSTS_H
#define RPROSA_ANALYSIS_TIMING_SEGMENT_COSTS_H

#include "analysis/timing/loop_bounds.h"

#include "core/task.h"
#include "core/wcet.h"
#include "rta/bounds.h"
#include "sim/cost_model.h"
#include "trace/trace.h"

#include <array>
#include <string>
#include <vector>

namespace rprosa::analysis {

/// The overhead classes of §5 — one per basic-action kind, with reads
/// split by outcome (their WCETs differ).
enum class SegmentClass : std::uint8_t {
  FailedRead,
  SuccessfulRead,
  Selection,
  Dispatch,
  Execution,
  Completion,
  Idling,
};
inline constexpr std::size_t NumSegmentClasses = 7;

std::string toString(SegmentClass C);

/// A closed duration interval [Lo, Hi].
struct CostInterval {
  Duration Lo = 0;
  Duration Hi = 0;

  bool contains(Duration D) const { return Lo <= D && D <= Hi; }
};

/// The derived bound for one segment class.
struct SegmentBound {
  SegmentClass Class = SegmentClass::FailedRead;
  /// A segment of this class exists in the program (graph-reachable
  /// source node). Unreachable classes keep a zero interval.
  bool Reachable = false;
  /// Bound on the whole segment: marker action + instruction tail.
  CostInterval I;
  /// The instruction-cost part of Hi (the tail beyond the marker
  /// action's own WCET) — what the static pass adds on top of the
  /// hand-supplied table.
  Duration InstrTailHi = 0;
  /// Node labels of the path attaining Hi (source first, then every
  /// non-marker node, ending at the delimiting marker or exit).
  std::vector<std::string> WitnessMax;
  /// Node labels of the path attaining Lo.
  std::vector<std::string> WitnessMin;
  /// Why Hi is TimeInfinity, when it is (non-benign cycle / budget).
  std::string Diagnostic;

  bool bounded() const { return !Reachable || I.Hi != TimeInfinity; }
};

/// Parameters of the static pass: the trusted WCET tables plus the
/// exploration limits.
struct StaticCostParams {
  BasicActionWcets Wcets;
  InstructionCosts Instr;
  /// max_i C_i over the deployment's task set (bounds the Execution
  /// segment's marker part; 0 means "no callbacks run").
  Duration MaxCallbackWcet = 0;
  /// Total node-expansion budget across all sources.
  std::uint64_t MaxPathSteps = 1 << 20;
  /// Per-path revisit cap per node (catches non-benign cycles).
  std::uint32_t MaxVisitsPerNode = 4096;
};

/// The outcome of the static pass over one program.
struct TimingResult {
  std::array<SegmentBound, NumSegmentClasses> Segments;
  std::uint32_t NumSockets = 1;
  /// Loop classification (diagnostics; also surfaced by rp_verify).
  std::vector<LoopBound> Loops;
  /// Completed source-to-delimiter paths the DFS enumerated.
  std::uint64_t PathsExplored = 0;
  /// iterationWcet(0) / the marginal cost of one extra successful read
  /// (display convenience; iterationWcet is the defining form).
  Duration IterationFixed = 0;
  Duration IterationPerSuccess = 0;

  const SegmentBound &seg(SegmentClass C) const {
    return Segments[static_cast<std::size_t>(C)];
  }

  /// Every reachable segment class has a finite upper bound.
  bool allBounded() const;

  /// Upper bound on one whole scheduler iteration (first polling read
  /// to first polling read) that read \p Successes messages: the
  /// do-while polling phase runs at most Successes+1 rounds of
  /// NumSockets reads each, then one selection and one
  /// dispatch/execute/complete (or idle) phase.
  Duration iterationWcet(std::uint64_t Successes) const;

  /// The hand-supplied WCET table with every reachable class's WCET
  /// replaced by the derived segment bound (SuccessfulRead is kept
  /// >= FailedRead, as BasicActionWcets::validate requires).
  BasicActionWcets effectiveWcets(const BasicActionWcets &Input) const;

  /// Packages the derived bounds as RTA inputs: effectiveWcets plus
  /// per-task callback WCETs inflated by the Execution segment's
  /// instruction tail.
  TimingInputs toRtaInputs(const TaskSet &Tasks,
                           const BasicActionWcets &Input) const;

  /// The per-segment bound table plus witness trails and loop
  /// classification, ready to print (rp_verify --timing).
  std::string describeTable() const;
};

/// Runs the static pass over \p G. \p NumSockets feeds the
/// iteration-WCET formula and the abstract registers' constant bound
/// (registerBound); the polling width itself is already baked into the
/// program's literals.
TimingResult analyzeTiming(const Cfg &G, const StaticCostParams &P,
                           std::uint32_t NumSockets);

/// One segment class whose derived upper bound grew from \p Ref to
/// \p Got — how the timing pass flags protocol-clean timing mutants.
struct TimingDiff {
  SegmentClass Class = SegmentClass::FailedRead;
  Duration RefHi = 0;
  Duration GotHi = 0;
  /// The witness path attaining the grown bound (replayable: its labels
  /// name the inserted nodes).
  std::vector<std::string> Witness;
};

/// The classes where \p Got's upper bound exceeds \p Ref's.
std::vector<TimingDiff> diffTiming(const TimingResult &Ref,
                                   const TimingResult &Got);

/// One observed basic action of a run, classified for the containment
/// check (delegates to trace/basic_actions.h for delimitation).
struct ObservedSegment {
  SegmentClass Class = SegmentClass::FailedRead;
  Duration Len = 0;
  std::size_t FirstMarker = 0;
};

std::vector<ObservedSegment> observedSegments(const TimedTrace &TT);

/// One observed scheduler iteration: markers [FirstMarker, ..) from an
/// iteration-starting M_ReadS to the next (or EndTime), with the number
/// of successful reads inside.
struct IterationObs {
  std::size_t FirstMarker = 0;
  Duration Len = 0;
  std::uint64_t Successes = 0;
};

std::vector<IterationObs> observedIterations(const TimedTrace &TT);

} // namespace rprosa::analysis

#endif // RPROSA_ANALYSIS_TIMING_SEGMENT_COSTS_H
