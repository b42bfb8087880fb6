//===- adequacy/pipeline.h - The end-to-end Thm. 5.1 pipeline -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable counterpart of Theorem 5.1 (timing correctness). One
/// call to runAdequacy():
///
///  1. validates the client (Def. 3.3) and WCET side conditions;
///  2. validates the arrival sequence against the arrival curves (Eq. 2)
///     and the message-id uniqueness assumption;
///  3. runs Rössl on the simulated substrate, producing a timed trace;
///  4. checks the trace invariants the paper proves with RefinedC:
///     scheduler protocol (Def. 3.1), functional correctness (Def. 3.2),
///     consistency with arr (Def. 2.1), WCET respect (§2.3), timestamp
///     sanity;
///  5. converts the trace to a schedule (§2.4) and checks the validity
///     constraints (a)–(e);
///  6. runs the overhead-aware RTA (§4) to obtain R_i + J_i;
///  7. renders the per-job verdicts of Thm. 5.1: every job of τ_i with
///     t_arr + R_i + J_i < t_hrzn must have its M_Completion marker by
///     t_arr + R_i + J_i.
///
/// The *guarantee* is conditional exactly as in the paper (§2.5): if any
/// assumption check fails (e.g. a violating cost model exceeded a WCET),
/// the verdicts are reported but carry no claim.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ADEQUACY_PIPELINE_H
#define RPROSA_ADEQUACY_PIPELINE_H

#include "convert/trace_to_schedule.h"
#include "core/arrival_sequence.h"
#include "rossl/client.h"
#include "rossl/scheduler.h"
#include "rta/rta_npfp.h"
#include "sim/cost_model.h"
#include "support/check.h"

#include <optional>
#include <string>
#include <vector>

namespace rprosa {

/// Everything one adequacy run needs.
struct AdequacySpec {
  ClientConfig Client;
  ArrivalSequence Arr{1};
  CostModelKind Cost = CostModelKind::AlwaysWcet;
  std::uint64_t Seed = 1;
  RunLimits Limits;
  RtaConfig Rta;
  /// When set, step 6's RTA draws its overhead WCETs and callback WCETs
  /// from these (e.g. statically derived by analysis/timing) instead of
  /// Client.Wcets / the task table, under every policy, and reports
  /// their Source.
  std::optional<TimingInputs> StaticTiming;
};

/// The Thm. 5.1 verdict for one job (arrival).
struct JobVerdict {
  MsgId Msg = 0;
  TaskId Task = InvalidTaskId;
  Time ArrivalAt = 0;
  /// R_i + J_i (TimeInfinity when the RTA found no bound).
  Duration Bound = TimeInfinity;
  /// Whether t_arr + bound < t_hrzn — only then does Thm. 5.1 promise
  /// completion.
  bool WithinHorizon = false;
  /// Whether an M_Completion for this job appears on the trace.
  bool Completed = false;
  Time CompletedAt = 0;
  /// CompletedAt - ArrivalAt (0 when not completed).
  Duration ResponseTime = 0;
  /// The theorem's claim for this job: vacuous outside the horizon,
  /// otherwise completed within the bound.
  bool Holds = false;
};

/// The aggregated outcome of one adequacy run.
struct AdequacyReport {
  // Assumption checks (§2.5): static model + workload.
  CheckResult StaticOk;
  CheckResult ArrivalOk;
  // Trace invariants (the RefinedC-proved properties, §3).
  CheckResult TimestampsOk;
  CheckResult ProtocolOk;
  CheckResult FunctionalOk;
  CheckResult ConsistencyOk;
  CheckResult WcetOk;
  // Schedule-level checks (§2.4).
  CheckResult ScheduleOk;
  CheckResult ValidityOk;

  RtaResult Rta;
  std::vector<JobVerdict> Jobs;
  /// The materialized trace and conversion — filled by runAdequacy's
  /// capture sinks; runAdequacyStreaming leaves both empty (that is its
  /// point).
  ConversionResult Conv;
  TimedTrace TT;
  /// t_hrzn: the horizon up to which the scheduler is known to have run.
  Time Horizon = 0;
  /// Markers emitted / jobs admitted over the run (filled by both
  /// entry points; summary() reads these, not TT/Conv).
  std::size_t Markers = 0;
  std::size_t NumJobs = 0;

  /// All of Thm. 5.1's assumptions held on this run.
  bool assumptionsHold() const;
  /// All trace/schedule invariant checks passed.
  bool invariantsHold() const;
  /// Thm. 5.1's conclusion: every in-horizon job completed in bound.
  bool conclusionHolds() const;
  /// The full theorem on this run: assumptions ⟹ conclusion.
  bool theoremHolds() const {
    return !assumptionsHold() || (invariantsHold() && conclusionHolds());
  }

  /// Total elementary checks performed (experiment E9).
  std::size_t totalChecks() const;

  /// A multi-line human-readable summary.
  std::string summary() const;
};

/// Runs the full pipeline and also materializes the trace and the
/// conversion (Rep.TT / Rep.Conv): the single-pass driver of
/// runAdequacyStreaming with a VectorSink on the trace fan-out and a
/// ScheduleCapture on the conversion-event fan-out. Every other report
/// field equals runAdequacyStreaming's.
AdequacyReport runAdequacy(const AdequacySpec &Spec);

/// The single-pass pipeline: one simulator run drives every trace
/// checker, the incremental §2.4 converter, and the validity
/// constraints through one sink that calls each of them directly
/// (DESIGN.md §9), keeping O(tasks + open jobs)
/// state — Rep.TT and Rep.Conv stay empty, so memory is independent of
/// the horizon. tests/stream_equivalence_test.cpp checks its reports
/// against the reference implementations of tests/reference_batch.cpp,
/// run on runAdequacy's Rep.TT.
AdequacyReport runAdequacyStreaming(const AdequacySpec &Spec);

} // namespace rprosa

#endif // RPROSA_ADEQUACY_PIPELINE_H
