//===- rta/rta_npfp.h - The NPFP response-time analysis (§4) --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The aRSA instantiation for Rössl: a busy-window response-time
/// analysis for fixed-priority non-preemptive scheduling with
///
///  - arbitrary arrival curves (§4.1, Eq. 2),
///  - release jitter J_i = 1 + max(PB+SB+DB, IB) and release curves
///    β_i(Δ) = α_i(Δ + J_i) (§4.3),
///  - overheads modeled as supply restrictions through the SBF of §4.4.
///
/// Per task τ_i (the NPFP part of arsa.h's busy-window walk; hitting
/// the cap yields Bounded = false):
///
///   blocking     B_i = max_{k ∈ lp(i)} C_k           (non-preemptive,
///                conservatively without the customary −1)
///   busy window  L_i = least L ≥ 1 with
///                SBF(L) ≥ B_i + Σ_{k ∈ hep(i) ∪ {i}} β_k(L)·C_k
///   offsets      A_q = least offset admitting the q-th release
///                (q = 1, 2, ... while A_q < L_i)
///   start bound  S_q = least t ≥ A_q with
///                SBF(t) ≥ B_i + (q−1)·C_i + Σ_{k ∈ hep(i)} β_k(t+1)·C_k
///   finish bound F_q = least t with
///                SBF(t) ≥ B_i + (q−1)·C_i + Σ_{k ∈ hep(i)} β_k(S_q+1)·C_k
///                         + C_i
///   R_i (release-relative) = max_q (F_q − A_q)
///
/// The reported bound w.r.t. the *arrival* sequence is R_i + J_i
/// (Thm. 4.2). Equal-priority other tasks are counted as interference
/// for the start bound (FIFO tie-breaking makes this conservative).
///
/// The same solver with the ideal supply, zero jitter and the raw α
/// curves yields (a) the bound for a hypothetical zero-overhead
/// scheduler and (b) the *unsound* overhead-oblivious analysis of
/// experiment E6 — selected via RtaConfig::AccountOverheads.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_RTA_RTA_NPFP_H
#define RPROSA_RTA_RTA_NPFP_H

#include "rta/bounds.h"
#include "rta/jitter.h"
#include "rta/sbf.h"
#include "rta/warm_start.h"

#include "core/task.h"

#include <vector>

namespace rprosa {

/// Knobs of the analysis.
///
/// The fields up to BlockingMinusOne are *semantic*: they change what
/// is computed. WarmIntraPoint and Telemetry are acceleration /
/// observability hooks that never change any result (warm_start.h's
/// soundness argument; asserted byte-for-byte by warm_start_test).
struct RtaConfig {
  /// Cap on every fixed-point search; beyond it a task is unbounded.
  Time FixedPointCap = 100 * TickSec;
  /// false = ideal supply, zero jitter, raw arrival curves (the
  /// zero-overhead baseline / the overhead-oblivious naive analysis).
  bool AccountOverheads = true;
  /// ABLATION (E14): drop the +1 carry-in job per task from the
  /// blackout bound. Tighter, but forfeits the carry-in argument of
  /// the SBF soundness derivation (sbf.h).
  bool AblateCarryIn = false;
  /// Use the classic B_i = max lp C_k − 1 blocking term instead of the
  /// conservative max lp C_k (a started job has at least one instant
  /// behind it in discrete time).
  bool BlockingMinusOne = false;

  /// Monotone seeding *within* one analysis run: S_q seeded from
  /// S_{q−1} (Prior and A_q grow with q, so lfp_{q−1} ≤ lfp_q), and
  /// the supply inverse seeded from its memo's nearest lower entry.
  /// Disabled only to measure the cold baseline (bench/hotpath).
  bool WarmIntraPoint = true;
  /// Optional iteration-count sink (not owned; thread-safe).
  FixpointTelemetry *Telemetry = nullptr;
};

/// The per-task outcome.
struct TaskRta {
  TaskId Task = InvalidTaskId;
  bool Bounded = false;
  /// R_i: the bound w.r.t. the release sequence.
  Duration ReleaseRelativeBound = 0;
  /// J_i (0 for the no-overhead variants).
  Duration Jitter = 0;
  /// R_i + J_i: the bound w.r.t. the arrival sequence (Thm. 5.1).
  Duration ResponseBound = 0;
  /// The busy-window length L_i the analysis explored.
  Duration BusyWindow = 0;
  /// The non-preemptive blocking term B_i.
  Duration Blocking = 0;
};

/// The analysis outcome for a whole task set.
struct RtaResult {
  std::vector<TaskRta> PerTask;
  OverheadBounds Bounds;
  /// Provenance of the WCET inputs the run used.
  TimingSource Source = TimingSource::HandSupplied;

  bool allBounded() const;
  const TaskRta &forTask(TaskId Id) const;
};

/// True when the analysis proves every task schedulable w.r.t. its
/// relative deadline: all tasks Bounded, and ResponseBound <= Deadline
/// for every task that specifies one (Deadline == 0 only needs
/// Bounded). This is the sufficient-side verdict the exact test is
/// cross-checked against: RTA-schedulable ⇒ SAG-schedulable is the
/// soundness gate of sag/explore.h.
bool meetsDeadlines(const RtaResult &R, const TaskSet &Tasks);

/// Runs the analysis on \p Tasks for a deployment with \p NumSockets
/// input sockets and the given basic-action WCETs.
RtaResult analyzeNpfp(const TaskSet &Tasks, const BasicActionWcets &W,
                      std::uint32_t NumSockets, const RtaConfig &Cfg = {});

/// The same analysis with provenance-tagged timing inputs:
/// analyzePolicy's TimingInputs overload under NPFP.
RtaResult analyzeNpfp(const TaskSet &Tasks, const TimingInputs &In,
                      std::uint32_t NumSockets, const RtaConfig &Cfg = {});

} // namespace rprosa

#endif // RPROSA_RTA_RTA_NPFP_H
