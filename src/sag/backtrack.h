//===- sag/backtrack.h - Counterexample extraction and replay -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replay gate of the exact test (DESIGN.md §13). When exploration
/// flags a state that admits a deadline miss, the abstract evidence is
/// an interval argument, not a run. This module realizes the candidate
/// as a *concrete, curve-compliant* arrival sequence (per-job desired
/// instants pushed through core's ArrivalRegulator) and replays
/// it through the simulator (AlwaysWcet cost model) with the five
/// streaming check sinks plus the DeadlineCheckSink attached. Only a
/// replay whose trace exhibits a miss upgrades the candidate to
/// Unschedulable (upgrade only on replay); anything weaker stays
/// Unknown.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_SAG_BACKTRACK_H
#define RPROSA_SAG_BACKTRACK_H

#include "sag/state.h"

#include "core/arrival_sequence.h"
#include "trace/check_sinks.h"

#include <vector>

namespace rprosa {

/// Deterministic arrival-placement strategies tried per candidate, in
/// order, until one replay confirms the miss.
enum class SagRealizeVariant : std::uint8_t {
  /// Every job at its earliest arrival (the greedy-dense sequence).
  AllEarly,
  /// Every job as late as its window allows (maximal release jitter).
  AllLate,
  /// The victim as late as possible, every competitor as early as
  /// possible (the classic blocking-maximizing alignment).
  VictimLate,
};

/// A realized workload: the concrete sequence plus the message id the
/// victim job was assigned (for tying a replayed miss back to the
/// candidate).
struct SagRealization {
  ArrivalSequence Arrivals{1};
  MsgId VictimMsg = 0;
};

/// Places every job of the model at a concrete arrival instant per
/// \p Variant, pushed to curve compliance. Deterministic.
SagRealization sagRealizeArrivals(const SagModel &M, std::uint32_t VictimJob,
                                  SagRealizeVariant Variant);

/// What one replay observed.
struct SagReplayOutcome {
  /// The DeadlineCheckSink flagged at least one miss.
  bool MissObserved = false;
  /// The first (earliest-completion) observed miss.
  DeadlineMiss Miss;
  /// The five core streaming checkers all passed.
  bool ChecksPassed = false;
  Time EndTime = 0;
};

/// Replays \p Arr through the simulator until \p Horizon with the
/// streaming checkers and the deadline sink attached.
SagReplayOutcome sagReplay(const SagModel &M, const ArrivalSequence &Arr,
                           Time Horizon);

/// A horizon past which every job of the model has certainly completed
/// (a saturating worst-case envelope; replay runs until here).
Time sagReplayHorizon(const SagModel &M);

} // namespace rprosa

#endif // RPROSA_SAG_BACKTRACK_H
