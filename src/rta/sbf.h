//===- rta/sbf.h - The supply bound function of Rössl (§4.4) --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §4.4: overheads are modeled as blackouts; the analysis needs
///
///   BlackoutBound(Δ) = TRB(Δ) + NRB(Δ)
///   SBF(Δ) = max_{0 ≤ δ ≤ Δ} (δ − BlackoutBound(δ))   (clamped at 0)
///
/// where TRB bounds the ReadOvh blackout and NRB the PollingOvh/
/// SelectionOvh/DispatchOvh/CompletionOvh blackout in any interval of
/// length Δ anchored at a busy-window start. Both are obtained by
/// bounding the number of jobs whose overhead can fall into the window:
///
///   NJobs(Δ) = Σ_i (β_i(Δ) + 1)
///
/// — the releases within the window per the release curves, plus one
/// carry-in job per task. (Derivation: at a busy-window start nothing
/// is pending — Def. 3.2's idling property — so a job with overhead
/// inside the window was read inside it, hence arrived at most IB
/// before it; β_i(Δ) = α_i(Δ + J_i) with J_i ≥ IB + 1 covers those, and
/// the +1 absorbs the boundary and one in-flight lower-priority job.)
///
///   TRB(Δ) = NJobs(Δ) · RB        NRB(Δ) = NJobs(Δ) · (PB+SB+DB+CB)
///
/// SBF is monotone by construction (the max over δ) as aRSA requires.
/// The inverse timeToSupply(W) = min{t : SBF(t) ≥ W} is computed by the
/// classic request-bound fixed point t ← W + BlackoutBound(t); each of
/// its steps counts NJobs once and prices both blackouts from it.
///
/// NJobs reads β_i through a FlatReleaseSet (core/curve_table.h): the
/// same compilation, shared by pointer, that the analyses' busy-window
/// fixpoints evaluate, so the RTA has one release-curve path.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_RTA_SBF_H
#define RPROSA_RTA_SBF_H

#include "rta/arsa.h"
#include "rta/bounds.h"
#include "rta/warm_start.h"

#include "core/curve_table.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace rprosa {

/// The restricted-supply model of Rössl.
class RosslSupply : public SupplyModel {
public:
  /// \p Releases compiles the task curves α_i with the release jitter
  /// as its shift, so NJobs sums Releases->evalRelease(i, Δ) = β_i(Δ);
  /// it must not be null. \p Cap bounds the fixed-point search (beyond
  /// it the analysis reports "unbounded"). \p CarryInPerTask controls
  /// the +1 carry-in job per task in NJobs; disabling it is an ABLATION
  /// ONLY — it tightens the bound but drops the busy-window carry-in
  /// argument the soundness derivation needs (see the E14 experiment).
  RosslSupply(std::shared_ptr<const FlatReleaseSet> Releases,
              const OverheadBounds &B, Time Cap,
              bool CarryInPerTask = true);

  /// Adds the supply-iteration and memo totals to the telemetry sink,
  /// if any.
  ~RosslSupply() override;
  RosslSupply(const RosslSupply &) = delete;
  RosslSupply &operator=(const RosslSupply &) = delete;

  /// Enables memo-seeded supply fixpoints: timeToSupply(W) starts from
  /// the memoized inverse of the largest W' ≤ W instead of from W (the
  /// inverse is monotone in W, so the seed is ≤ the lfp — sound per
  /// warm_start.h). Results are identical; iterations drop. Call
  /// before the first query.
  void setWarmSeeding(bool Enabled) { WarmSeeds = Enabled; }

  /// Reports into \p Tel (not owned), once, on destruction: the
  /// supply-fixpoint iterations and the memo's totals. A hit is a
  /// timeToSupply call answered from the memo (the monotone ∞ shortcut
  /// included), a miss a call that ran the blackout fixpoint; Work == 0
  /// is neither.
  void setTelemetry(FixpointTelemetry *Tel) { Telemetry = Tel; }

  /// The most answers the memo keeps. Past it, answers are computed
  /// (and counted as misses) but not stored, so the memo stays within
  /// 256 KiB, which also bounds what one insert moves.
  static constexpr std::size_t MemoCapacity = std::size_t(1) << 14;

  /// NJobs(Δ): the job-count bound described above.
  std::uint64_t jobBound(Duration Delta) const;

  /// TRB(Δ): blackout from ReadOvh states.
  Duration trb(Duration Delta) const;

  /// NRB(Δ): blackout from the non-read overhead states.
  Duration nrb(Duration Delta) const;

  /// BlackoutBound(Δ) = TRB(Δ) + NRB(Δ), from one NJobs(Δ) count.
  Duration blackoutBound(Duration Delta) const;

  Duration supplyBound(Duration Delta) const override;
  Time timeToSupply(Duration Work) const override;

private:
  std::shared_ptr<const FlatReleaseSet> Releases;
  OverheadBounds B;
  Time Cap;
  bool CarryInPerTask;
  bool WarmSeeds = false;
  FixpointTelemetry *Telemetry = nullptr;

  /// timeToSupply is the innermost loop of every fixed-point search and
  /// is repeatedly queried at the same Work values (the Kleene iterates
  /// revisit each other's results, and supplyBound bisects over it).
  /// The model is immutable after construction, so the inverse is pure;
  /// this memo caches it: (W, t) pairs sorted by W in one flat array,
  /// so warm seeding finds the nearest memoized W' ≤ W by binary
  /// search, and at most MemoCapacity of them. Mutex-guarded: one
  /// RosslSupply may be shared across sweep threads (sbf_curves, the
  /// SweepRunner ports).
  struct MemoEntry {
    Duration Work;
    Time T;
  };
  mutable std::mutex MemoM;
  mutable std::vector<MemoEntry> Memo;  ///< Guarded by MemoM.
  mutable FixpointCounts Counts;        ///< Guarded by MemoM.

  /// The first memo entry above \p Work. Requires MemoM.
  std::vector<MemoEntry>::iterator memoAbove(Duration Work) const;
  /// Stores t(\p Work) = \p T unless the memo holds Work or is full.
  /// Requires MemoM.
  void remember(Duration Work, Time T) const;
};

} // namespace rprosa

#endif // RPROSA_RTA_SBF_H
