//===- tests/trace_mutants.h - Seeded runs and single-marker mutants ------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The malformed-input corpus of the §2.4 and sink differential suites:
/// seeded FdScheduler runs (1-4 tasks on 1-4 sockets under NPFP, NP-EDF
/// or NP-FIFO) and single-marker mutants of their traces (drop a marker,
/// duplicate one, swap two neighbours, truncate, or rewrite a job id),
/// with timestamps kept non-decreasing, the converter's precondition.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TESTS_TRACE_MUTANTS_H
#define RPROSA_TESTS_TRACE_MUTANTS_H

#include "test_util.h"

#include <string>
#include <utility>
#include <vector>

namespace rprosa::testutil {

/// One seeded system: client, workload, and its simulated trace.
struct SimRun {
  ClientConfig Client;
  ArrivalSequence Arr{1};
  TimedTrace TT;
};

inline SimRun simulate(std::uint64_t Seed) {
  SplitMix64 Rng(Seed * 7919 + 3);
  SimRun R;
  TaskSet TS;
  std::size_t NumTasks = Rng.nextInRange(1, 4);
  for (std::size_t I = 0; I < NumTasks; ++I) {
    Duration Wcet = Rng.nextInRange(10, 60);
    Duration Period = Wcet * Rng.nextInRange(6, 30);
    Priority Prio = static_cast<Priority>(Rng.nextInRange(1, 3));
    ArrivalCurvePtr Curve =
        Rng.nextBernoulli(1, 2)
            ? ArrivalCurvePtr(std::make_shared<PeriodicCurve>(Period))
            : ArrivalCurvePtr(std::make_shared<LeakyBucketCurve>(
                  Rng.nextInRange(1, 3), Period));
    TS.addTask("t" + std::to_string(I), Wcet, Prio, std::move(Curve),
               Period / Rng.nextInRange(1, 3) + 1);
  }
  R.Client = makeClient(std::move(TS),
                        static_cast<std::uint32_t>(Rng.nextInRange(1, 4)));
  switch (Rng.nextInRange(0, 2)) {
  case 0:
    R.Client.Policy = SchedPolicy::Npfp;
    break;
  case 1:
    R.Client.Policy = SchedPolicy::Edf;
    break;
  default:
    R.Client.Policy = SchedPolicy::Fifo;
    break;
  }
  WorkloadSpec WS;
  WS.NumSockets = R.Client.NumSockets;
  WS.Horizon = 3000;
  WS.Seed = Seed;
  WS.Style = Rng.nextBernoulli(1, 2) ? WorkloadStyle::Random
                                     : WorkloadStyle::GreedyDense;
  R.Arr = generateWorkload(R.Client.Tasks, WS);
  R.TT = runRossl(R.Client, R.Arr, 6000,
                  Rng.nextBernoulli(1, 2) ? CostModelKind::AlwaysWcet
                                          : CostModelKind::Uniform,
                  Seed);
  return R;
}

enum class Mutation { Drop, Duplicate, Swap, Truncate, RewriteId };

inline const char *name(Mutation M) {
  switch (M) {
  case Mutation::Drop:
    return "drop";
  case Mutation::Duplicate:
    return "duplicate";
  case Mutation::Swap:
    return "swap";
  case Mutation::Truncate:
    return "truncate";
  case Mutation::RewriteId:
    return "rewrite-id";
  }
  return "?";
}

/// Applies mutation \p M at a random marker of \p TT, keeping the
/// timestamps non-decreasing; returns a description for replay lines.
inline std::string mutate(TimedTrace &TT, Mutation M, SplitMix64 &Rng) {
  const std::size_t I = Rng.nextInRange(0, TT.size() - 2);
  const auto Pos = [](std::size_t K) { return std::ptrdiff_t(K); };
  switch (M) {
  case Mutation::Drop:
    TT.Tr.erase(TT.Tr.begin() + Pos(I));
    TT.Ts.erase(TT.Ts.begin() + Pos(I));
    break;
  case Mutation::Duplicate: {
    const MarkerEvent E = TT.Tr[I];
    TT.Tr.insert(TT.Tr.begin() + Pos(I + 1), E);
    TT.Ts.insert(TT.Ts.begin() + Pos(I + 1), TT.Ts[I]);
    break;
  }
  case Mutation::Swap:
    // The markers trade places; the timestamps stay where they were.
    std::swap(TT.Tr[I], TT.Tr[I + 1]);
    break;
  case Mutation::Truncate:
    // The run is cut where marker I + 1 would have started.
    TT.EndTime = TT.Ts[I + 1];
    TT.Tr.resize(I + 1);
    TT.Ts.resize(I + 1);
    break;
  case Mutation::RewriteId: {
    std::vector<std::size_t> WithJob;
    JobId MaxId = 0;
    for (std::size_t K = 0; K < TT.size(); ++K) {
      if (!TT.Tr[K].J)
        continue;
      WithJob.push_back(K);
      MaxId = std::max(MaxId, TT.Tr[K].J->Id);
    }
    if (WithJob.empty())
      return std::string(name(M)) + " (no job marker)";
    const std::size_t K = WithJob[Rng.nextInRange(0, WithJob.size() - 1)];
    const JobId NewId =
        Rng.nextBernoulli(1, 4)
            ? MaxId + 1
            : TT.Tr[WithJob[Rng.nextInRange(0, WithJob.size() - 1)]].J->Id;
    TT.Tr[K].J->Id = NewId;
    return std::string(name(M)) + " at marker " + std::to_string(K) +
           " to j" + std::to_string(NewId);
  }
  }
  return std::string(name(M)) + " at marker " + std::to_string(I);
}

} // namespace rprosa::testutil

#endif // RPROSA_TESTS_TRACE_MUTANTS_H
