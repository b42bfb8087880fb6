//===- rta/bounds.h - Per-state overhead bounds (§2.4, §4.3) --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The upper bounds on the durations of the overhead processor states,
/// derived from the basic-action WCETs and the socket count:
///
///   PB = |input_socks| · WcetFR          (Def. 2.2, one polling round)
///   SB = WcetSel,  DB = WcetDisp,  CB = WcetCompl
///   RB = |input_socks| · WcetFR + WcetSR (per-job read overhead: at
///        most as many failed reads as sockets before a success, §2.4)
///   IB = PB + SB + WcetIdling            (time from an arrival during
///        an Idle period until that period ends: the rest of the
///        current polling round, the failed selection, and one idle
///        cycle — the next polling phase reads the job and is no
///        longer Idle)
///
/// The paper leaves IB abstract ("we calculate the upper bounds PB, SB,
/// DB and IB ... using WCET assumptions", §4.3); the derivation above is
/// this reproduction's instantiation and is validated empirically by the
/// jitter experiments (E5).
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_RTA_BOUNDS_H
#define RPROSA_RTA_BOUNDS_H

#include "core/ids.h"
#include "core/task.h"
#include "core/time.h"
#include "core/wcet.h"

#include <string>
#include <vector>

namespace rprosa {

/// Upper bounds on the discrete overhead-state durations.
struct OverheadBounds {
  Duration PB = 0; ///< One all-failed polling round.
  Duration SB = 0; ///< One selection.
  Duration DB = 0; ///< One dispatch.
  Duration CB = 0; ///< One completion cleanup.
  Duration RB = 0; ///< Total read overhead attributed to one job.
  Duration IB = 0; ///< Idle residue after an arrival.

  /// Derives the bounds from WCETs and the socket count.
  static OverheadBounds compute(const BasicActionWcets &W,
                                std::uint32_t NumSockets);

  /// The total non-read overhead one executed job can cause
  /// (PollingOvh + SelectionOvh + DispatchOvh + CompletionOvh).
  Duration perJobNonReadOverhead() const {
    return satAdd(satAdd(PB, SB), satAdd(DB, CB));
  }
};

/// Where the timing inputs of an analysis run came from. The paper
/// takes WCETs as trusted parameters (§2.3); the static timing pass
/// (analysis/timing) derives them from the verified CFG instead.
enum class TimingSource : std::uint8_t {
  HandSupplied,   ///< The classical mode: trusted WCET tables.
  StaticAnalysis, ///< Derived by the static segment-cost analysis.
};

std::string toString(TimingSource S);

/// A complete set of timing inputs for the RTA: basic-action WCETs plus
/// optional per-task callback-WCET overrides, tagged with provenance.
/// analyzePolicy (rta_policies.h) has an overload taking TimingInputs,
/// so statically derived bounds reach every policy's analysis without
/// touching the hand-supplied tables.
struct TimingInputs {
  BasicActionWcets Wcets;
  /// Callback WCETs indexed by TaskId; tasks beyond the vector keep
  /// their hand-supplied Task::Wcet.
  std::vector<Duration> CallbackWcets;
  TimingSource Source = TimingSource::HandSupplied;

  /// The callback WCET of task \p Id, falling back to \p Fallback
  /// (the task's own C_i) when no override is present.
  Duration callbackWcet(TaskId Id, Duration Fallback) const {
    return Id < CallbackWcets.size() ? CallbackWcets[Id] : Fallback;
  }

  /// \p Tasks with every callback WCET replaced by callbackWcet (ids are
  /// dense and kept).
  TaskSet applyTo(const TaskSet &Tasks) const;
};

} // namespace rprosa

#endif // RPROSA_RTA_BOUNDS_H
