//===- tests/adequacy_fixtures.h - Systems for the dynamic pipeline -------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AdequacySpecs that the sink oracle and the allocation budget run
/// through runAdequacyStreaming:
///
///  - denseSpec: the shape of the end-to-end benchmark's adequacy_dense
///    systems (µs-scale periodic, leaky-bucket and periodic-jitter
///    curves, 600 ns callbacks scaled by the seed, the Uniform cost model
///    and Random arrivals), far from overload, so per-job work dominates;
///  - overloadSpec: two tasks whose WCETs exceed their periods on two
///    sockets, built as `rp_verify --stream` builds its run. Its backlog
///    grows for the whole run: about 80,000 open jobs at 100 ms.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TESTS_ADEQUACY_FIXTURES_H
#define RPROSA_TESTS_ADEQUACY_FIXTURES_H

#include "adequacy/pipeline.h"
#include "adequacy/spec_parser.h"
#include "sim/workload.h"
#include "support/check.h"
#include "support/rng.h"

#include <memory>
#include <optional>
#include <string>

namespace rprosa::testutil {

/// A job-dense system: \p NumTasks tasks on \p Sockets sockets, at most
/// \p Arrivals arrivals per task, drawn from \p Seed.
inline AdequacySpec denseSpec(std::uint32_t NumTasks, std::uint32_t Sockets,
                              std::uint64_t Arrivals, std::uint64_t Seed,
                              SchedPolicy Policy = SchedPolicy::Npfp) {
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 5);
  AdequacySpec Spec;
  ClientConfig &C = Spec.Client;
  C.NumSockets = Sockets;
  C.Wcets = BasicActionWcets::typicalDeployment();
  C.Policy = Policy;
  // The summed arrival rate scales with the polling cost of the socket
  // count; task I's period is proportional to 1 + I / 4.
  const double Rate = 1.0 / (1600.0 * (4 + Sockets)); // Per ns.
  double RawRate = 0;
  for (std::uint32_t I = 0; I < NumTasks; ++I)
    RawRate += 1 / (1 + 0.25 * I);
  for (std::uint32_t I = 0; I < NumTasks; ++I) {
    const auto Period =
        static_cast<Duration>((1 + 0.25 * I) * RawRate / Rate);
    ArrivalCurvePtr Curve;
    if (I % 3 == 0)
      Curve = std::make_shared<PeriodicCurve>(Period);
    else if (I % 3 == 1)
      Curve = std::make_shared<LeakyBucketCurve>(2, Period);
    else
      Curve = std::make_shared<PeriodicJitterCurve>(Period, Period / 4);
    C.Tasks.addTask("t" + std::to_string(I),
                    (450 + Rng.nextInRange(0, 300)) * TickNs,
                    static_cast<Priority>(NumTasks - I), std::move(Curve),
                    Period * 4);
  }
  WorkloadSpec WS;
  WS.NumSockets = Sockets;
  WS.Horizon = static_cast<Time>(1.15 * double(Arrivals) / Rate);
  WS.Seed = Rng.next();
  WS.Style = WorkloadStyle::Random;
  WS.MaxArrivalsPerTask = Arrivals;
  Spec.Arr = generateWorkload(C.Tasks, WS);
  Spec.Cost = CostModelKind::Uniform;
  Spec.Seed = Rng.next();
  Spec.Limits.Horizon = WS.Horizon + WS.Horizon / 8 + 200 * TickUs;
  return Spec;
}

/// The overloaded two-task system over \p Horizon: arrivals over the
/// first half, GreedyDense, as `rp_verify --stream <spec> <Horizon>`.
inline AdequacySpec overloadSpec(Duration Horizon,
                                 SchedPolicy Policy = SchedPolicy::Npfp) {
  const char *Text = "system overload\n"
                     "sockets 2\n"
                     "policy npfp\n"
                     "wcets fr 400ns sr 900ns sel 300ns disp 250ns "
                     "compl 350ns idle 2us\n"
                     "task a wcet 3us prio 2 curve periodic 2us\n"
                     "task b wcet 3us prio 1 curve periodic 3us\n";
  std::optional<SystemSpec> Sys = parseSystemSpec(Text, nullptr);
  RPROSA_CHECK(Sys.has_value(), "the overload spec must parse");
  AdequacySpec Spec;
  Spec.Client = Sys->Client;
  Spec.Client.Policy = Policy;
  WorkloadSpec WS;
  WS.NumSockets = Spec.Client.NumSockets;
  WS.Horizon = Horizon / 2;
  WS.Style = WorkloadStyle::GreedyDense;
  Spec.Arr = generateWorkload(Spec.Client.Tasks, WS);
  Spec.Limits.Horizon = Horizon;
  return Spec;
}

} // namespace rprosa::testutil

#endif // RPROSA_TESTS_ADEQUACY_FIXTURES_H
