//===- perfbench/src/rta_sweep.cpp - Workload rta_sweep -------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One op is one capacity question — the shape of `capacity_planner` and
/// `acceptance_ratio`: a single SweepRunner::run over sockets
/// {1,2,4,8,16} x a ladder of WCET scales for one seeded task set (2-32
/// tasks, 1-100 ms periods, a mix of curves, utilization 0.3-1.2). Warm
/// starts and the curve cache are on and the thread count is fixed, so
/// only the RTA, the core curve tables and the support thread pool do
/// work: no simulation, parsing or I/O.
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include "rta/sweep.h"
#include "support/rng.h"

#include <algorithm>
#include <cmath>
#include <memory>

using namespace rprosa;
using namespace perfbench;

namespace {

/// One task set per (task count, utilization stratum): 45 sets, a fixed
/// size profile whose op-time quantiles fall inside one set's band. The
/// strata are narrow because the cost of a point climbs steeply as its
/// demand nears the supply, so coarse strata would let the seed decide
/// how many points land there.
constexpr std::uint32_t TaskLadder[] = {2, 4, 8, 16, 32};
constexpr std::uint32_t UtilStrata = 9;
constexpr double UtilLo = 0.3, UtilHi = 1.2;
constexpr std::uint32_t Sockets[] = {1, 2, 4, 8, 16};
/// WCET scales in percent, ascending so warm starts apply.
constexpr std::uint64_t ScalesPct[] = {50, 60, 70, 80, 90, 100,
                                       110, 120, 130, 140};
/// Sweep threads: fixed, so the op's shape does not follow the machine.
constexpr unsigned SweepThreads = 2;

struct Question {
  std::vector<SweepPoint> Points;
};

/// One seeded task set with \p N tasks at the centre of utilization
/// stratum \p Stratum, swept into its point grid. The shape is fixed —
/// log-spaced 1-100 ms periods, near-equal utilization shares, curve
/// kinds by index — and the seed perturbs every parameter slightly.
Question makeQuestion(SplitMix64 &Rng, std::uint32_t N,
                      std::uint32_t Stratum) {
  const double Width = (UtilHi - UtilLo) / UtilStrata;
  const double U = (UtilLo + Width * (Stratum + 0.5)) * perturb(Rng, 0.01);
  std::vector<double> Share(N);
  double Sum = 0;
  for (double &S : Share)
    Sum += S = perturb(Rng, 0.05);
  for (double &S : Share)
    S *= U / Sum;

  struct Base {
    Duration Period;
    ArrivalCurvePtr Curve;
    Duration Deadline;
  };
  std::vector<Base> Tasks;
  for (std::uint32_t I = 0; I < N; ++I) {
    const double Decades = N > 1 ? 2.0 * I / (N - 1) : 0;
    const Duration Period = static_cast<Duration>(
        double(TickMs) * std::pow(10.0, Decades) * perturb(Rng, 0.03));
    ArrivalCurvePtr Curve;
    switch (I % 3) {
    case 0:
      Curve = std::make_shared<PeriodicCurve>(Period);
      break;
    case 1:
      Curve = std::make_shared<LeakyBucketCurve>(2, Period);
      break;
    default:
      Curve = std::make_shared<PeriodicJitterCurve>(
          Period, static_cast<Duration>(Period / 8 * perturb(Rng, 0.5)));
      break;
    }
    Tasks.push_back({Period, std::move(Curve), I % 2 ? 0 : Period});
  }

  Question Q;
  // Scaled copies share the curve objects, which is what lets the sweep
  // warm-start one point from the next smaller one.
  for (std::uint32_t Socks : Sockets) {
    for (std::uint64_t Pct : ScalesPct) {
      SweepPoint P;
      for (std::uint32_t I = 0; I < N; ++I) {
        Duration Wcet = static_cast<Duration>(Share[I] *
                                              double(Tasks[I].Period) *
                                              double(Pct) / 100.0);
        P.Tasks.addTask("t" + std::to_string(I), std::max<Duration>(Wcet, 1),
                        static_cast<Priority>(N - I), Tasks[I].Curve,
                        Tasks[I].Deadline);
      }
      P.Cfg.FixedPointCap = 1 * TickSec;
      P.Sbf.Wcets = BasicActionWcets::typicalDeployment();
      P.Sbf.NumSockets = Socks;
      Q.Points.push_back(std::move(P));
    }
  }
  return Q;
}

class RtaSweep final : public Workload {
public:
  void setup(std::uint64_t Seed, Tracer *) override {
    Qs.clear();
    SplitMix64 Rng(Seed * 0xa0761d6478bd642full + 3);
    for (std::uint32_t N : TaskLadder)
      for (std::uint32_t S = 0; S < UtilStrata; ++S)
        Qs.push_back(makeQuestion(Rng, N, S));
  }

  std::size_t numInputs() const override { return Qs.size(); }

  OpOutcome run(std::size_t I, Tracer *T) override {
    const Question &Q = Qs[I];
    SweepOptions Opts;
    Opts.Threads = SweepThreads;
    std::vector<RtaResult> Rs;
    SweepTelemetry Tel;
    {
      Tracer::Scope S(T, "rta.sweep_ms");
      SweepRunner Runner(Opts);
      Rs = Runner.run(Q.Points);
      Tel = Runner.telemetry();
    }
    OpOutcome O;
    // Known answer: the RTA is monotone in the WCETs, so a task bounded
    // at one scale is bounded at every smaller scale (same sockets).
    const std::size_t NumScales = std::size(ScalesPct);
    for (std::size_t P = 0; P < Rs.size(); ++P) {
      if (P % NumScales == 0)
        continue;
      const RtaResult &Smaller = Rs[P - 1];
      for (const TaskRta &Tr : Rs[P].PerTask)
        if (Tr.Bounded && !Smaller.forTask(Tr.Task).Bounded)
          fail(O, "bounded at a larger WCET scale only");
    }
    O.Digest = fnv1a(sweepResultsJson(Q.Points, Rs));
    O.Points = double(Q.Points.size());
    if (T) {
      T->count("rta.points", double(Q.Points.size()));
      T->count("rta.fixpoint_iterations", double(Tel.Fixpoints.Iterations));
      T->count("rta.supply_iterations",
               double(Tel.Fixpoints.SupplyIterations));
      T->count("rta.warm_seeded", double(Tel.Fixpoints.Seeded));
      T->count("rta.curve_hits", double(Tel.Cache.Hits));
      T->count("rta.curve_misses", double(Tel.Cache.Misses));
    }
    return O;
  }

private:
  std::vector<Question> Qs;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeRtaSweep() {
  return std::make_unique<RtaSweep>();
}
