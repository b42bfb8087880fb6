//===- rta/analysis_setup.h - What every busy-window analysis builds ------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The setup the NPFP (rta_npfp.cpp), FIFO and EDF (rta_policies.cpp)
/// analyses share: overhead bounds, release jitter, one flat compilation
/// of the task curves, and the supply built over that same compilation.
/// Private to rp_rta: only those two sources include it.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_RTA_ANALYSIS_SETUP_H
#define RPROSA_RTA_ANALYSIS_SETUP_H

#include "rta/rta_npfp.h"

#include <memory>
#include <vector>

namespace rprosa::detail {

struct AnalysisSetup {
  OverheadBounds Bounds;
  /// J_i (0 without overhead accounting).
  Duration Jitter = 0;
  /// The one compilation of the task curves every β_k evaluation of the
  /// run goes through, the supply's job bound included.
  std::shared_ptr<const FlatReleaseSet> Releases;
  /// Rössl's SBF over Releases, or the ideal supply without overheads.
  std::unique_ptr<SupplyModel> Supply;
};

/// Builds the setup for analyzing \p Tasks under \p Cfg. \p Horizon is
/// the largest window the analysis queries β_k at, which differs per
/// policy (an EDF window reaches past the cap by the deadline spread).
inline AnalysisSetup setUpAnalysis(const TaskSet &Tasks,
                                   const BasicActionWcets &W,
                                   std::uint32_t NumSockets,
                                   const RtaConfig &Cfg, Duration Horizon) {
  AnalysisSetup S;
  S.Bounds = OverheadBounds::compute(W, NumSockets);
  S.Jitter = Cfg.AccountOverheads ? maxReleaseJitter(S.Bounds) : 0;
  std::vector<ArrivalCurvePtr> Alphas;
  for (const Task &T : Tasks.tasks())
    Alphas.push_back(T.Curve);
  // The hot-path kernel: every β_k evaluation goes through one flat
  // compilation of the task curves (core/curve_table.h), never the
  // virtual curve tree. Identical values by construction.
  S.Releases = std::make_shared<FlatReleaseSet>(Alphas, S.Jitter, Horizon);
  if (Cfg.AccountOverheads) {
    auto Rossl = std::make_unique<RosslSupply>(
        S.Releases, S.Bounds, Cfg.FixedPointCap, !Cfg.AblateCarryIn);
    Rossl->setWarmSeeding(Cfg.WarmIntraPoint);
    Rossl->setTelemetry(Cfg.Telemetry);
    S.Supply = std::move(Rossl);
  } else {
    S.Supply = std::make_unique<IdealSupply>();
  }
  return S;
}

} // namespace rprosa::detail

#endif // RPROSA_RTA_ANALYSIS_SETUP_H
