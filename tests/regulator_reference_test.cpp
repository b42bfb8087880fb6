//===- tests/regulator_reference_test.cpp - Eq. 2 against its scans -------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The library's Eq. 2 code (ArrivalRegulator, firstCurveExcess, and
/// through them generateWorkload and the SAG's job set and realizer)
/// against the pairwise scans it replaced (tests/reference_curves.h).
/// Per seed: thousands of sequences per base shape (periodic,
/// periodic-jitter, leaky-bucket) and some over Sum, Min, Scaled,
/// Shifted and Staircase curves, which have no regulator form. Each
/// sequence grows by the oracle's push from random proposals, some
/// below the last arrival, with periods, jitters, bursts and rates up
/// to 2^64, times near 2^64 and windows at the search cap; then it is
/// perturbed by a few ticks around the compliance boundary. Every
/// earliest() answer and every check's verdict, failing pair and check
/// count must agree. RPROSA_FUZZ_SEED picks a fresh set; a failure
/// names it.
///
//===----------------------------------------------------------------------===//

#include "reference_curves.h"
#include "test_util.h"

#include "sag/backtrack.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

using namespace rprosa;
using rprosa::testutil::fuzzSeed;

namespace {

constexpr int SequencesPerShape = 6000;
constexpr int CombinedSequences = 2000;
constexpr int TaskSetsPerSeed = 100;

/// A positive magnitude: small, moderate, close to WindowSearchCap / k
/// (so the k-th push meets the cap), or anything up to 2^63.
Duration magnitude(SplitMix64 &Rng) {
  switch (Rng.nextInRange(0, 5)) {
  case 0:
    return Rng.nextInRange(1, 8);
  case 1:
    return Rng.nextInRange(1, 1000);
  case 2:
    return Rng.nextInRange(1, 1000000);
  case 3:
    return WindowSearchCap / Rng.nextInRange(1, 12) - 2 +
           Rng.nextInRange(0, 4);
  case 4:
    return Rng.nextInRange(1, Duration(1) << 40);
  default:
    return Rng.nextInRange(1, Duration(1) << 63);
  }
}

/// A value near 2^64: TimeInfinity minus a small or moderate amount.
Duration nearTop(SplitMix64 &Rng) {
  return TimeInfinity -
         (Rng.nextBernoulli(1, 2) ? Rng.nextInRange(0, 8) : magnitude(Rng));
}

ArrivalCurvePtr periodic(SplitMix64 &Rng) {
  return std::make_shared<PeriodicCurve>(magnitude(Rng));
}

ArrivalCurvePtr jitter(SplitMix64 &Rng) {
  Duration T = magnitude(Rng);
  Duration Jit = 0;
  switch (Rng.nextInRange(0, 5)) {
  case 0:
    Jit = Rng.nextInRange(0, 8);
    break;
  case 1:
    Jit = Rng.nextInRange(0, T); // Up to one period, as in the specs.
    break;
  case 2:
    Jit = satMul(T, Rng.nextInRange(1, 6)) - Rng.nextInRange(0, 1);
    break;
  case 3:
    Jit = magnitude(Rng);
    break;
  case 4:
    Jit = nearTop(Rng); // ValidTo near 0: the scan decides.
    break;
  default:
    // Jit near 2^64 saturates every window, so the curve admits only
    // k arrivals when k·T just passes 2^64, while the form, read past
    // its ValidTo, would admit a (k + 1)-th within the search cap.
    T = TimeInfinity / Rng.nextInRange(2, 8) + Rng.nextInRange(1, 1 << 20);
    Jit = nearTop(Rng);
    break;
  }
  return std::make_shared<PeriodicJitterCurve>(T, Jit);
}

ArrivalCurvePtr bucket(SplitMix64 &Rng) {
  // Rates past 2^63 with bursts near 2^64 reach the slack's floor.
  Duration R = Rng.nextBernoulli(1, 6) ? nearTop(Rng) : magnitude(Rng);
  std::uint64_t B = 1;
  switch (Rng.nextInRange(0, 3)) {
  case 0:
    B = Rng.nextInRange(1, 5);
    break;
  case 1:
    B = magnitude(Rng);
    break;
  case 2:
    // At and just past where Burst + TimeInfinity/R wraps: no form.
    B = TimeInfinity - TimeInfinity / R + Rng.nextInRange(0, 2);
    B = B == 0 ? 1 : B;
    break;
  default:
    B = nearTop(Rng);
    B = B == 0 ? 1 : B;
    break;
  }
  return std::make_shared<LeakyBucketCurve>(B, R);
}

/// A base curve of small magnitudes, as operand of a combinator.
ArrivalCurvePtr smallBase(SplitMix64 &Rng) {
  Duration P = Rng.nextInRange(1, 300);
  switch (Rng.nextInRange(0, 2)) {
  case 0:
    return std::make_shared<PeriodicCurve>(P);
  case 1:
    return std::make_shared<PeriodicJitterCurve>(P, Rng.nextInRange(0, P));
  default:
    return std::make_shared<LeakyBucketCurve>(Rng.nextInRange(1, 4), P);
  }
}

/// A curve with no regulator form.
ArrivalCurvePtr combined(SplitMix64 &Rng) {
  switch (Rng.nextInRange(0, 4)) {
  case 0:
    return std::make_shared<SumCurve>(
        std::vector<ArrivalCurvePtr>{smallBase(Rng), smallBase(Rng)});
  case 1:
    return std::make_shared<MinCurve>(smallBase(Rng), smallBase(Rng));
  case 2:
    return std::make_shared<ScaledCurve>(smallBase(Rng),
                                         Rng.nextInRange(1, 3));
  case 3:
    return std::make_shared<ShiftedCurve>(smallBase(Rng),
                                          Rng.nextInRange(0, 200));
  default: {
    std::vector<StaircaseCurve::Step> Steps;
    Duration Len = 0;
    std::uint64_t Bound = 0;
    for (std::uint64_t N = Rng.nextInRange(1, 3); N > 0; --N) {
      Len += Rng.nextInRange(1, 300);
      Bound += Rng.nextInRange(1, 2);
      Steps.push_back({Len, Bound});
    }
    return std::make_shared<StaircaseCurve>(
        std::move(Steps), Rng.nextBernoulli(2, 3) ? Rng.nextInRange(1, 300)
                                                  : 0);
  }
  }
}

std::string timesText(const std::vector<Time> &Times) {
  std::string S = "[";
  for (Time T : Times) {
    if (S.size() > 1)
      S += ' ';
    S += std::to_string(T);
  }
  return S + "]";
}

/// What the comparisons reached, so the coverage asserts can require it.
struct Coverage {
  std::uint64_t EarliestCalls = 0;
  std::uint64_t BelowLast = 0;   ///< Proposals before the last arrival.
  std::uint64_t InfAtCap = 0;    ///< TimeInfinity: no window below the cap.
  std::uint64_t InfSaturated = 0;///< TimeInfinity: the bound saturated.
  std::uint64_t Checks = 0;
  std::uint64_t Failing = 0;     ///< Checks that found an excess.
  std::uint64_t FormDecided = 0; ///< Span within the form's ValidTo.
  std::uint64_t SpanTooLong = 0; ///< Form present, span past ValidTo.
};

class Harness {
public:
  explicit Harness(std::uint64_t Seed)
      : Replay("; replay: RPROSA_FUZZ_SEED=" + std::to_string(Seed)) {}

  Coverage Cov;

  /// Grows one sequence over \p Curve by the oracle's push, comparing
  /// every answer with the regulator's, then checks it and perturbed
  /// copies of it against the oracle's scan.
  void sequence(SplitMix64 &Rng, const ArrivalCurve &Curve) {
    ArrivalRegulator Reg(Curve);
    std::vector<Time> Times;
    std::size_t Len = Rng.nextInRange(1, 16);
    Duration Step = magnitude(Rng);
    Time Start = 0;
    switch (Rng.nextInRange(0, 3)) {
    case 0:
      break;
    case 1:
      Start = magnitude(Rng);
      break;
    default:
      Start = Rng.nextBernoulli(1, 2) ? nearTop(Rng) : Rng.nextInRange(0, 8);
      break;
    }
    while (Times.size() < Len) {
      Time Last = Times.empty() ? Start : Times.back();
      Time Proposed = propose(Rng, Last, Step);
      if (!Times.empty() && Proposed < Last)
        ++Cov.BelowLast;
      Time Want = reference::earliestCompliantArrival(Curve, Times, Proposed);
      ++Cov.EarliestCalls;
      if (!same(Reg.earliest(Proposed), Want, Curve, Times, Proposed))
        return;
      if (Want == TimeInfinity) {
        if (minWindowAdmitting(Curve, Times.size() + 1) == TimeInfinity)
          ++Cov.InfAtCap;
        else
          ++Cov.InfSaturated;
        break;
      }
      Times.push_back(Want);
      Reg.append(Want);
    }
    EXPECT_EQ(Reg.count(), Times.size());
    EXPECT_EQ(Reg.last(), Times.empty() ? 0 : Times.back());
    check(Times, Curve);
    for (int P = 0; P < 3 && !Times.empty(); ++P) {
      std::vector<Time> Moved = Times;
      std::size_t I = Rng.nextInRange(0, Moved.size() - 1);
      switch (Rng.nextInRange(0, 3)) {
      case 0:
        Moved[I] = Moved[I] - std::min<Time>(Moved[I], Rng.nextInRange(1, 3));
        break;
      case 1:
        Moved[I] = satAdd(Moved[I], Rng.nextInRange(1, 3));
        break;
      case 2:
        Moved[I] = Rng.nextBernoulli(1, 2) ? 0 : nearTop(Rng);
        break;
      default:
        Moved.insert(Moved.begin() + I, Moved[I]); // A twin arrival.
        break;
      }
      if (Rng.nextBernoulli(3, 4))
        std::sort(Moved.begin(), Moved.end()); // As the callers do.
      check(Moved, Curve);
    }
  }

  bool failed() const { return Failures > 0; }
  const std::string &replay() const { return Replay; }

private:
  Time propose(SplitMix64 &Rng, Time Last, Duration Step) {
    switch (Rng.nextInRange(0, 7)) {
    case 0:
      return Last;
    case 1:
      return satAdd(Last, Rng.nextInRange(0, 3));
    case 2:
      return satAdd(Last, Rng.nextInRange(0, satMul(Step, 2)));
    case 3:
      return Last - std::min<Time>(Last, Rng.nextInRange(1, 3));
    case 4:
      return Rng.nextInRange(0, Last);
    case 5:
      return satAdd(Last, magnitude(Rng));
    case 6:
      return nearTop(Rng);
    default:
      return 0;
    }
  }

  bool same(Time Got, Time Want, const ArrivalCurve &Curve,
            const std::vector<Time> &Times, Time Proposed) {
    if (Got == Want)
      return true;
    if (++Failures <= 10)
      ADD_FAILURE() << "earliest(" << Proposed << ") after "
                    << timesText(Times) << " on " << Curve.describe()
                    << ": regulator " << Got << ", scan " << Want << Replay;
    return false;
  }

  void check(const std::vector<Time> &Times, const ArrivalCurve &Curve) {
    ++Cov.Checks;
    std::optional<CurveRegulator> Form = Curve.regulator();
    if (Form && !Times.empty() && std::is_sorted(Times.begin(), Times.end()))
      ++(Times.back() - Times.front() <= Form->ValidTo ? Cov.FormDecided
                                                       : Cov.SpanTooLong);
    CheckResult Got, Want;
    std::optional<CurveExcess> G = firstCurveExcess(Times, Curve, Got);
    std::optional<CurveExcess> W =
        reference::firstCurveExcess(Times, Curve, Want);
    if (W)
      ++Cov.Failing;
    bool Same = G.has_value() == W.has_value() &&
                Got.checksPerformed() == Want.checksPerformed() &&
                (!G || (G->Count == W->Count &&
                        G->WindowLen == W->WindowLen &&
                        G->Bound == W->Bound));
    if (!Same && ++Failures <= 10)
      ADD_FAILURE() << "check of " << timesText(Times) << " on "
                    << Curve.describe() << ": regulator "
                    << (G ? "excess " + std::to_string(G->Count) + "/" +
                                std::to_string(G->WindowLen)
                          : std::string("pass"))
                    << " after " << Got.checksPerformed()
                    << " checks, scan "
                    << (W ? "excess " + std::to_string(W->Count) + "/" +
                                std::to_string(W->WindowLen)
                          : std::string("pass"))
                    << " after " << Want.checksPerformed() << " checks"
                    << Replay;
  }

  std::string Replay;
  std::uint64_t Failures = 0;
};

/// A curve for a generated task: a base shape of moderate magnitude, or
/// a combinator.
ArrivalCurvePtr taskCurve(SplitMix64 &Rng) {
  return Rng.nextBernoulli(1, 4) ? combined(Rng) : smallBase(Rng);
}

TaskSet randomTasks(SplitMix64 &Rng) {
  TaskSet TS;
  for (std::uint64_t N = Rng.nextInRange(1, 4), I = 0; I < N; ++I)
    TS.addTask(std::string(1, char('a' + I)), Rng.nextInRange(1, 40),
               static_cast<Priority>(Rng.nextInRange(1, 3)), taskCurve(Rng));
  return TS;
}

struct ArrivalKey {
  Time At;
  SocketId Socket;
  MsgId Msg;
  TaskId Task;
  bool operator==(const ArrivalKey &) const = default;
};

std::vector<ArrivalKey> keys(const ArrivalSequence &Arr) {
  std::vector<ArrivalKey> Out;
  for (const Arrival &A : Arr.arrivals())
    Out.push_back({A.At, A.Socket, A.Msg.Id, A.Msg.Task});
  return Out;
}

/// SagModel::build's job enumeration over the oracle: per task, the
/// greedy-dense instants before the horizon, up to the job cap.
std::vector<std::pair<TaskId, Time>> oracleJobs(const TaskSet &Tasks,
                                                Time Horizon) {
  std::vector<std::pair<TaskId, Time>> Jobs;
  for (const Task &T : Tasks.tasks()) {
    std::vector<Time> Times;
    for (;;) {
      Time Last = Times.empty() ? 0 : Times.back();
      Time At = reference::earliestCompliantArrival(*T.Curve, Times, Last);
      if (At == TimeInfinity || At >= Horizon)
        break;
      if (Jobs.size() >= SagMaxJobs)
        return Jobs;
      Jobs.push_back({T.Id, At});
      Times.push_back(At);
    }
  }
  return Jobs;
}

/// sagRealizeArrivals over the oracle.
ArrivalSequence oracleRealization(const SagModel &M, std::uint32_t Victim,
                                  SagRealizeVariant Variant) {
  ArrivalSequence Arr(M.numSockets());
  for (const Task &T : M.tasks().tasks()) {
    std::vector<Time> Times;
    for (std::uint32_t Idx = 0; Idx < M.jobs().size(); ++Idx) {
      const SagJob &J = M.jobs()[Idx];
      if (J.Task != T.Id)
        continue;
      bool Late = Variant == SagRealizeVariant::AllLate ||
                  (Variant == SagRealizeVariant::VictimLate && Idx == Victim);
      Time At = reference::earliestCompliantArrival(*T.Curve, Times,
                                                    Late ? J.Rmax : J.Rmin);
      if (At == TimeInfinity)
        break;
      Times.push_back(At);
      Arr.addArrival(At, J.Socket, T.Id);
    }
  }
  return Arr;
}

} // namespace

TEST(RegulatorReference, MatchesThePairwiseScans) {
  const std::uint64_t Seed = fuzzSeed(19);
  SplitMix64 Rng(Seed);
  Harness H(Seed);
  for (int I = 0; I < SequencesPerShape && !H.failed(); ++I) {
    H.sequence(Rng, *periodic(Rng));
    H.sequence(Rng, *jitter(Rng));
    H.sequence(Rng, *bucket(Rng));
  }
  for (int I = 0; I < CombinedSequences && !H.failed(); ++I)
    H.sequence(Rng, *combined(Rng));

  const Coverage &C = H.Cov;
  std::printf("%llu earliest calls (%llu below the last arrival, %llu "
              "TimeInfinity at the cap, %llu saturated), %llu checks "
              "(%llu failing, %llu decided by a form, %llu past its "
              "ValidTo)\n",
              (unsigned long long)C.EarliestCalls,
              (unsigned long long)C.BelowLast,
              (unsigned long long)C.InfAtCap,
              (unsigned long long)C.InfSaturated,
              (unsigned long long)C.Checks, (unsigned long long)C.Failing,
              (unsigned long long)C.FormDecided,
              (unsigned long long)C.SpanTooLong);
  EXPECT_GT(C.BelowLast, 0u) << H.replay();
  EXPECT_GT(C.InfAtCap, 0u) << H.replay();
  EXPECT_GT(C.InfSaturated, 0u) << H.replay();
  EXPECT_GT(C.Failing, C.Checks / 20) << H.replay();
  EXPECT_GT(C.FormDecided, C.Checks / 4) << H.replay();
  EXPECT_GT(C.SpanTooLong, 0u) << H.replay();
}

TEST(RegulatorReference, GeneratorMatchesTheScanningGenerator) {
  const std::uint64_t Seed = fuzzSeed(19);
  SplitMix64 Rng(Seed ^ 0x6a09e667f3bcc908ull);
  const std::string Replay = "; replay: RPROSA_FUZZ_SEED=" +
                             std::to_string(Seed);
  for (int I = 0; I < TaskSetsPerSeed; ++I) {
    TaskSet TS = randomTasks(Rng);
    WorkloadSpec Spec;
    Spec.NumSockets = static_cast<std::uint32_t>(Rng.nextInRange(1, 3));
    Spec.Horizon = Rng.nextInRange(1, 30000);
    Spec.Seed = Rng.next();
    // The oracle is quadratic: a limit keeps dense curves cheap, and the
    // horizon ends the sparse ones first.
    Spec.MaxArrivalsPerTask = Rng.nextInRange(1, 150);
    std::vector<SocketId> Map(TS.size());
    for (SocketId &S : Map)
      S = static_cast<SocketId>(Rng.nextInRange(0, Spec.NumSockets - 1));
    for (WorkloadStyle Style : {WorkloadStyle::Random,
                                WorkloadStyle::GreedyDense,
                                WorkloadStyle::Sparse}) {
      Spec.Style = Style;
      ASSERT_TRUE(keys(generateWorkload(TS, Map, Spec)) ==
                  keys(reference::generateWorkload(TS, Map, Spec)))
          << "task set " << I << ", style " << int(Style) << Replay;
    }
  }
}

TEST(RegulatorReference, SagJobsAndRealizationsMatchTheScans) {
  const std::uint64_t Seed = fuzzSeed(19);
  SplitMix64 Rng(Seed ^ 0xbb67ae8584caa73bull);
  const std::string Replay = "; replay: RPROSA_FUZZ_SEED=" +
                             std::to_string(Seed);
  for (int I = 0; I < TaskSetsPerSeed; ++I) {
    TaskSet TS = randomTasks(Rng);
    SagConfig Cfg;
    Cfg.Horizon = Rng.nextInRange(1, 4000);
    Cfg.ReleaseJitter = Rng.nextBernoulli(1, 4) ? 0 : Rng.nextInRange(1, 400);
    SagModel M = SagModel::build(
        TS, testutil::tinyWcets(),
        static_cast<std::uint32_t>(Rng.nextInRange(1, 3)), SchedPolicy::Npfp,
        Cfg);
    std::vector<std::pair<TaskId, Time>> Jobs;
    for (const SagJob &J : M.jobs())
      Jobs.push_back({J.Task, J.Rmin});
    ASSERT_EQ(Jobs, oracleJobs(TS, Cfg.Horizon))
        << "task set " << I << Replay;
    if (M.jobs().empty())
      continue;
    auto Victim = static_cast<std::uint32_t>(
        Rng.nextInRange(0, M.jobs().size() - 1));
    for (SagRealizeVariant V :
         {SagRealizeVariant::AllEarly, SagRealizeVariant::AllLate,
          SagRealizeVariant::VictimLate}) {
      SagRealization R = sagRealizeArrivals(M, Victim, V);
      ASSERT_TRUE(keys(R.Arrivals) == keys(oracleRealization(M, Victim, V)))
          << "task set " << I << ", variant " << int(V) << Replay;
    }
  }
}
