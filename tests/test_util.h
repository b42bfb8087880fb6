//===- tests/test_util.h - Shared fixtures for the test suite -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders for the scenarios the tests exercise over and over: small
/// WCET tables, task sets of varying shapes, and a one-call "run Rössl
/// and hand me the trace" helper.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TESTS_TEST_UTIL_H
#define RPROSA_TESTS_TEST_UTIL_H

#include "caesium/ast.h"
#include "rossl/scheduler.h"
#include "rta/sweep.h"
#include "sim/environment.h"
#include "sim/workload.h"

#include <cstdlib>
#include <memory>
#include <random>

namespace rprosa::testutil {

/// Process-lifetime arena for ASTs hand-built inside tests (the trees
/// are tiny, and never resetting keeps every StmtPtr valid for the
/// whole binary). Test files alias it as `TA` for terse factory calls:
/// TA.seq({TA.setReg(0, TA.lit(1))}).
inline caesium::AstArena &testArena() {
  static auto *A = new caesium::AstArena;
  return *A;
}

/// The base seed of a randomized (fuzz-style) test: \p Default unless
/// the environment overrides it via RPROSA_FUZZ_SEED. Every randomized
/// loop derives its per-iteration seeds from this value and names it in
/// failure messages, so a CI failure replays locally with
///   RPROSA_FUZZ_SEED=<seed> ctest -R <test>
inline std::uint64_t fuzzSeed(std::uint64_t Default) {
  const char *Env = std::getenv("RPROSA_FUZZ_SEED");
  if (!Env || !*Env)
    return Default;
  char *End = nullptr;
  std::uint64_t S = std::strtoull(Env, &End, 10);
  return End && *End == '\0' ? S : Default;
}

/// Small, round WCETs that keep hand computations easy: FR=4, SR=10,
/// Sel=3, Disp=2, Compl=5, Idling=8.
inline BasicActionWcets tinyWcets() {
  BasicActionWcets W;
  W.FailedRead = 4;
  W.SuccessfulRead = 10;
  W.Selection = 3;
  W.Dispatch = 2;
  W.Completion = 5;
  W.Idling = 8;
  return W;
}

/// A periodic task: arrivals at most every \p Period ticks.
inline TaskId addPeriodicTask(TaskSet &TS, std::string Name, Duration Wcet,
                              Priority Prio, Duration Period) {
  return TS.addTask(std::move(Name), Wcet, Prio,
                    std::make_shared<PeriodicCurve>(Period));
}

/// A bursty task: up to \p Burst back-to-back, then one per \p Rate.
inline TaskId addBurstyTask(TaskSet &TS, std::string Name, Duration Wcet,
                            Priority Prio, std::uint64_t Burst,
                            Duration Rate) {
  return TS.addTask(std::move(Name), Wcet, Prio,
                    std::make_shared<LeakyBucketCurve>(Burst, Rate));
}

/// The two-task set of the Fig. 3 walkthrough: tau1 (low priority) and
/// tau2 (high priority), both periodic.
inline TaskSet figure3Tasks() {
  TaskSet TS;
  addPeriodicTask(TS, "tau1", /*Wcet=*/50, /*Prio=*/1, /*Period=*/1000);
  addPeriodicTask(TS, "tau2", /*Wcet=*/30, /*Prio=*/2, /*Period=*/1000);
  return TS;
}

/// A richer three-task mix for property sweeps.
inline TaskSet mixedTasks() {
  TaskSet TS;
  addPeriodicTask(TS, "ctrl", /*Wcet=*/40, /*Prio=*/3, /*Period=*/500);
  addBurstyTask(TS, "sensor", /*Wcet=*/25, /*Prio=*/2, /*Burst=*/3,
                /*Rate=*/400);
  addPeriodicTask(TS, "log", /*Wcet=*/80, /*Prio=*/1, /*Period=*/900);
  return TS;
}

/// Runs Rössl once and returns the timed trace.
inline TimedTrace runRossl(const ClientConfig &Client,
                           const ArrivalSequence &Arr, Time Horizon,
                           CostModelKind Cost = CostModelKind::AlwaysWcet,
                           std::uint64_t Seed = 1) {
  Environment Env(Arr);
  CostModel Costs(Client.Wcets, Cost, Seed);
  FdScheduler Sched(Client, Env, Costs);
  RunLimits Limits;
  Limits.Horizon = Horizon;
  return Sched.run(Limits);
}

/// A ClientConfig around a task set with the tiny WCETs.
inline ClientConfig makeClient(TaskSet TS, std::uint32_t NumSockets,
                               BasicActionWcets W = tinyWcets()) {
  ClientConfig C;
  C.Tasks = std::move(TS);
  C.NumSockets = NumSockets;
  C.Wcets = W;
  return C;
}

/// A job literal for handcrafted traces.
inline Job mkJob(JobId Id, TaskId Task, MsgId Msg = 0, SocketId Sock = 0) {
  Job J;
  J.Id = Id;
  J.Task = Task;
  J.Msg = Msg == 0 ? Id : Msg;
  J.Socket = Sock;
  return J;
}

/// Builds timed traces for the checker tests: each appended marker gets
/// the current cursor as timestamp, then the cursor advances by the
/// given segment length.
class TraceBuilder {
public:
  TraceBuilder &at(MarkerEvent E, Duration SegmentLen) {
    TT.Tr.push_back(std::move(E));
    TT.Ts.push_back(Cursor);
    Cursor += SegmentLen;
    return *this;
  }

  /// A full failed read (M_ReadS then M_ReadE ⊥ at the end of the poll).
  TraceBuilder &failedRead(SocketId Sock, Duration Len) {
    at(MarkerEvent::readS(), Len);
    return at(MarkerEvent::readE(Sock, std::nullopt), 0);
  }

  /// A full successful read of \p J.
  TraceBuilder &successRead(SocketId Sock, Job J, Duration Len) {
    at(MarkerEvent::readS(), Len);
    J.Socket = Sock;
    return at(MarkerEvent::readE(Sock, J), 0);
  }

  TimedTrace finish() {
    TT.EndTime = Cursor;
    return TT;
  }

private:
  TimedTrace TT;
  Time Cursor = 0;
};

/// A randomized sweep grid in the shape real sweeps have: shared curve
/// objects, WCETs and socket counts perturbed per point, mixed
/// policies. Mostly monotone runs, in which a point's demand dominates
/// its predecessor's, broken by random discontinuities.
inline std::vector<SweepPoint> seededRandomGrid(std::uint64_t Seed,
                                                std::size_t N) {
  std::mt19937_64 Rng(Seed);
  TaskSet Base = mixedTasks();
  TaskSet EdfBase;
  for (const Task &T : Base.tasks())
    EdfBase.addTask(T.Name, T.Wcet, T.Prio, T.Curve,
                    /*Deadline=*/2000 + 100 * T.Id);

  std::vector<SweepPoint> Points;
  std::uniform_int_distribution<int> Jump(0, 9);
  std::uniform_int_distribution<std::uint32_t> Socks(1, 4);
  std::uniform_int_distribution<Duration> Bump(0, 5);
  Duration Drift = 0;
  for (std::size_t I = 0; I < N; ++I) {
    if (Jump(Rng) == 0)
      Drift = 0; // Discontinuity: the next point is not dominated.
    SweepPoint P;
    bool Edf = Jump(Rng) < 2;
    const TaskSet &From = Edf ? EdfBase : Base;
    for (const Task &T : From.tasks())
      P.Tasks.addTask(T.Name, T.Wcet + Drift, T.Prio, T.Curve, T.Deadline);
    P.Cfg.FixedPointCap = 1 * TickSec;
    P.Sbf.Wcets = tinyWcets();
    P.Sbf.NumSockets = Socks(Rng);
    P.Policy = Edf ? SchedPolicy::Edf
                   : (Jump(Rng) < 5 ? SchedPolicy::Npfp : SchedPolicy::Fifo);
    Points.push_back(std::move(P));
    Drift += Bump(Rng);
  }
  return Points;
}

} // namespace rprosa::testutil

#endif // RPROSA_TESTS_TEST_UTIL_H
