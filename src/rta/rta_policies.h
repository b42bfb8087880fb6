//===- rta/rta_policies.h - RTAs for the EDF and FIFO extensions ----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Response-time analyses for the non-preemptive EDF and FIFO variants
/// of the scheduler, built on the same restricted-supply foundation as
/// the NPFP analysis (release jitter Def. 4.3, release curves §4.3, SBF
/// §4.4). These mirror the policies the related work verifies (ProKOS:
/// FP and EDF; Prosa: FIFO).
///
/// **NP-FIFO.** Precedence is read order. A job read before ours
/// arrived at most J after our arrival (it was read no later than us,
/// and our read lags our arrival by at most J), so the work that must
/// finish before our job completes is bounded by all releases within
/// A + J + 1 of the busy-window start plus one in-flight job:
///
///   F(A) = min{ t : SBF(t) ≥ B + Σ_k β_k(A + J + 1)·C_k },
///   R_i = max_A (F(A) − A),  reported bound = R_i + J.
///
/// **NP-EDF.** A job's key is its read time plus D_i. A job of task k
/// can precede ours only if it arrives within A + J + D_i − D_k of the
/// busy-window start (same read-lag argument applied to both keys):
///
///   F(A) = min{ t : SBF(t) ≥ B + Σ_k β_k(max(0, A+1+J+D_i−D_k))·C_k }.
///
/// Both use B = max_{k≠i} C_k as the non-preemptive blocking term (any
/// other task's job may have just started). Both are deliberately
/// conservative where the read-time/arrival-time gap is involved; the
/// adequacy sweeps validate their soundness empirically.
///
/// Both are the order part of arsa.h's busy-window walk: the busy
/// window solves the same demand at A = L, the offsets A_q run while
/// A_q < L, and F(A_q) is floored at A_q + C_i. EDF tasks without a
/// deadline are reported unbounded.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_RTA_RTA_POLICIES_H
#define RPROSA_RTA_RTA_POLICIES_H

#include "rta/rta_npfp.h"

#include "core/policy.h"

namespace rprosa {

/// NP-FIFO response-time bounds.
RtaResult analyzeFifo(const TaskSet &Tasks, const BasicActionWcets &W,
                      std::uint32_t NumSockets, const RtaConfig &Cfg = {});

/// NP-EDF response-time bounds (tasks need relative deadlines).
RtaResult analyzeEdf(const TaskSet &Tasks, const BasicActionWcets &W,
                     std::uint32_t NumSockets, const RtaConfig &Cfg = {});

/// Dispatches to the policy's analysis.
RtaResult analyzePolicy(const TaskSet &Tasks, const BasicActionWcets &W,
                        std::uint32_t NumSockets, SchedPolicy Policy,
                        const RtaConfig &Cfg = {});

/// The policy's analysis over provenance-tagged timing inputs: the
/// basic-action WCETs come from \p In, each callback WCET from
/// In.applyTo(Tasks), and the result carries In.Source (statically
/// derived bounds flow in here).
RtaResult analyzePolicy(const TaskSet &Tasks, const TimingInputs &In,
                        std::uint32_t NumSockets, SchedPolicy Policy,
                        const RtaConfig &Cfg = {});

} // namespace rprosa

#endif // RPROSA_RTA_RTA_POLICIES_H
