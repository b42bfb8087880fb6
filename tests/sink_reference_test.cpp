//===- tests/sink_reference_test.cpp - Job tables vs the map-based sinks --===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Differential test of the dynamic pipeline's sinks against their
/// map-based bodies (reference_sinks.h). On every input, each sink must
/// give the same CheckResult (messages, order, checksPerformed), the
/// builders the same event stream, and runAdequacyStreaming the same
/// AdequacyReport::summary() and per-job verdicts. No divergence is
/// admitted. The inputs:
///
///  - seeded systems in the end-to-end benchmark's adequacy_dense shape,
///    under NPFP, NP-EDF and NP-FIFO;
///  - convert_reference_test's seeded runs and single-marker mutants;
///  - hostile rewrites of seeded runs: one job id read under two policy
///    keys, a message read twice, a job id that reappears after its
///    completion, a read of a message missing from arr, and duplicate
///    message ids in arr;
///  - the overloaded two-task system, whose backlog holds tens of
///    thousands of open jobs, under NPFP and NP-FIFO.
///
/// The library's action-level faces (one ActionSegmenter feeding
/// WcetCheckSink and ScheduleBuilder, as the adequacy pipeline runs
/// them) must also match their TraceSink faces.
///
//===----------------------------------------------------------------------===//

#include "adequacy/pipeline.h"
#include "convert/schedule_builder.h"
#include "convert/validity.h"
#include "convert/validity_stream.h"
#include "trace/check_sinks.h"
#include "trace/stream.h"

#include "adequacy_fixtures.h"
#include "reference_sinks.h"
#include "test_util.h"
#include "trace_mutants.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

/// Records every conversion event as one line.
class EventLog final : public ScheduleEventConsumer {
public:
  void onScheduleStart(Time At) override {
    Lines.push_back("start " + std::to_string(At));
  }
  void onSegment(const ScheduleSegment &Seg) override {
    Lines.push_back("segment " + std::to_string(Seg.Start) + " +" +
                    std::to_string(Seg.Len) + " " + toString(Seg.State));
  }
  void onJobAdmitted(const ConvertedJob &CJ, std::size_t Index) override {
    job("admitted", CJ, Index);
  }
  void onJobSelected(const ConvertedJob &CJ, std::size_t Index) override {
    job("selected", CJ, Index);
  }
  void onJobDispatched(const ConvertedJob &CJ, std::size_t Index) override {
    job("dispatched", CJ, Index);
  }
  void onJobRetired(const ConvertedJob &CJ, std::size_t Index) override {
    job("retired", CJ, Index);
  }
  void onScheduleEnd(
      const std::vector<std::pair<std::size_t, ConvertedJob>> &Open) override {
    Lines.push_back("end, " + std::to_string(Open.size()) + " open");
    for (const auto &[Index, CJ] : Open)
      job("open", CJ, Index);
  }

  std::vector<std::string> Lines;

private:
  static std::string at(const std::optional<Time> &T) {
    return T ? std::to_string(*T) : "-";
  }
  void job(const char *What, const ConvertedJob &CJ, std::size_t Index) {
    Lines.push_back(std::string(What) + " #" + std::to_string(Index) + " j" +
                    std::to_string(CJ.J.Id) + " m" + std::to_string(CJ.J.Msg) +
                    " t" + std::to_string(CJ.J.Task) + " s" +
                    std::to_string(CJ.J.Socket) + " r" +
                    std::to_string(CJ.ReadAt) + " " + at(CJ.SelectedAt) +
                    " " + at(CJ.DispatchedAt) + " " + at(CJ.CompletedAt));
  }
};

void expectSame(const CheckResult &Lib, const CheckResult &Ref,
                const char *What, const std::string &Where) {
  EXPECT_EQ(Lib.checksPerformed(), Ref.checksPerformed())
      << What << " check counts differ" << Where;
  EXPECT_EQ(Lib.failures(), Ref.failures())
      << What << " failures differ:\n"
      << Lib.describe() << "--- reference ---\n"
      << Ref.describe() << Where;
}

/// checkValidity's replay (convert/validity.cpp) into the reference
/// validity sink.
CheckResult referenceCheckValidity(const ConversionResult &CR,
                                   const ClientConfig &C,
                                   const ArrivalSequence &Arr) {
  reference::StreamingValidity V(C.Tasks, Arr, C.Wcets, C.NumSockets,
                                 C.Policy);
  V.onScheduleStart(CR.Sched.startTime());
  for (const ScheduleSegment &Seg : CR.Sched.segments())
    V.onSegment(Seg);
  for (std::size_t I = 0; I < CR.Jobs.size(); ++I)
    V.onJobAdmitted(CR.Jobs[I], I);
  for (std::size_t I = 0; I < CR.Jobs.size(); ++I)
    if (CR.Jobs[I].SelectedAt)
      V.onJobSelected(CR.Jobs[I], I);
  std::vector<std::pair<std::size_t, ConvertedJob>> Open;
  for (std::size_t I = 0; I < CR.Jobs.size(); ++I) {
    if (CR.Jobs[I].CompletedAt)
      V.onJobRetired(CR.Jobs[I], I);
    else
      Open.emplace_back(I, CR.Jobs[I]);
  }
  V.onScheduleEnd(Open);
  return V.take();
}

/// Every changed sink on one trace, library against reference.
void compareSinks(const ClientConfig &C, const ArrivalSequence &Arr,
                  const TimedTrace &TT, const std::string &Where) {
  const std::uint32_t N = C.NumSockets;

  FunctionalCheckSink Fun(C.Tasks, C.Policy);
  reference::FunctionalCheckSink RFun(C.Tasks, C.Policy);
  ProtocolCheckSink Prot(N);
  reference::ProtocolCheckSink RProt(N);
  ConsistencyCheckSink Cons(Arr);
  reference::ConsistencyCheckSink RCons(Arr);
  DeadlineCheckSink Dl(C.Tasks, Arr);
  reference::DeadlineCheckSink RDl(C.Tasks, Arr);

  // The builders with validity behind them, through the TraceSink face.
  EventLog Events, REvents;
  CheckResult Diags, RDiags;
  StreamingValidity Val(C.Tasks, Arr, C.Wcets, N, C.Policy);
  reference::StreamingValidity RVal(C.Tasks, Arr, C.Wcets, N, C.Policy);
  ScheduleCapture Capture;
  ScheduleEventFanout Fan, RFan;
  Fan.add(Events);
  Fan.add(Val);
  Fan.add(Capture);
  RFan.add(REvents);
  RFan.add(RVal);
  ScheduleBuilder Builder(N, Fan, &Diags);
  reference::ScheduleBuilder RBuilder(N, RFan, &RDiags);

  // The action-level faces, as PipelineSinks drives them.
  EventLog ActionEvents;
  CheckResult ActionDiags;
  ScheduleBuilder ActionBuilder(N, ActionEvents, &ActionDiags);
  WcetCheckSink Wcet(C.Tasks, C.Wcets), ActionWcet(C.Tasks, C.Wcets);
  ActionSegmenter Seg([&](const BasicAction &A, Time ReadEAt) {
    ActionWcet.onAction(A, ReadEAt);
    ActionBuilder.onAction(A, ReadEAt);
  });

  TraceFanout Lib, Ref;
  for (TraceSink *S : std::initializer_list<TraceSink *>{
           &Fun, &Prot, &Cons, &Dl, &Builder, &Wcet})
    Lib.add(*S);
  for (TraceSink *S : std::initializer_list<TraceSink *>{
           &RFun, &RProt, &RCons, &RDl, &RBuilder})
    Ref.add(*S);

  for (std::size_t I = 0; I < TT.size(); ++I) {
    Lib.onMarker(TT.Tr[I], TT.Ts[I]);
    Ref.onMarker(TT.Tr[I], TT.Ts[I]);
    ActionBuilder.checkMarkerTime(TT.Ts[I]);
    Seg.onMarker(TT.Tr[I], TT.Ts[I]);
    ASSERT_EQ(Fun.pendingJobs(), RFun.pendingJobs())
        << "pending jobs after marker " << I << Where;
    ASSERT_EQ(Builder.openJobs(), RBuilder.openJobs())
        << "open jobs after marker " << I << Where;
    ASSERT_EQ(Val.openRecords(), RVal.openRecords())
        << "open records after marker " << I << Where;
    ASSERT_EQ(Val.openUsage(), RVal.openUsage())
        << "open usage after marker " << I << Where;
  }
  Lib.onEnd(TT.EndTime);
  Ref.onEnd(TT.EndTime);
  ActionBuilder.checkEndTime(TT.EndTime);
  Seg.onEnd(TT.EndTime);
  ActionBuilder.finish();

  expectSame(Fun.take(), RFun.take(), "functional", Where);
  expectSame(Prot.take(), RProt.take(), "protocol", Where);
  expectSame(Cons.take(), RCons.take(), "consistency", Where);
  ASSERT_EQ(Dl.misses().size(), RDl.misses().size()) << Where;
  for (std::size_t I = 0; I < Dl.misses().size(); ++I) {
    const DeadlineMiss &A = Dl.misses()[I], &B = RDl.misses()[I];
    EXPECT_TRUE(A.Job == B.Job && A.Msg == B.Msg && A.Task == B.Task &&
                A.ArrivalAt == B.ArrivalAt && A.CompletedAt == B.CompletedAt &&
                A.Response == B.Response && A.Deadline == B.Deadline)
        << "deadline miss " << I << " differs" << Where;
  }
  expectSame(Dl.take(), RDl.take(), "deadline", Where);
  EXPECT_EQ(Events.Lines, REvents.Lines) << "builder events differ" << Where;
  expectSame(Diags, RDiags, "conversion diagnostics", Where);
  EXPECT_EQ(Builder.admittedJobs(), RBuilder.admittedJobs()) << Where;
  expectSame(Val.take(), RVal.take(), "validity", Where);

  EXPECT_EQ(ActionEvents.Lines, Events.Lines)
      << "action-level builder events differ" << Where;
  expectSame(ActionDiags, Diags, "action-level diagnostics", Where);
  expectSame(ActionWcet.take(), Wcet.take(), "action-level wcet", Where);

  // checkValidity admits the whole table before any selection.
  const ConversionResult CR = Capture.take();
  expectSame(checkValidity(CR, C.Tasks, Arr, C.Wcets, N, C.Policy),
             referenceCheckValidity(CR, C, Arr), "batch validity", Where);
}

void comparePipeline(const AdequacySpec &Spec, const std::string &Where) {
  const AdequacyReport Lib = runAdequacyStreaming(Spec);
  const AdequacyReport Ref = reference::runAdequacyStreaming(Spec);
  EXPECT_EQ(Lib.summary(), Ref.summary()) << Where;
  EXPECT_EQ(Lib.totalChecks(), Ref.totalChecks()) << Where;
  EXPECT_EQ(Lib.Markers, Ref.Markers) << Where;
  EXPECT_EQ(Lib.NumJobs, Ref.NumJobs) << Where;
  const std::pair<const CheckResult *, const CheckResult *> Pairs[] = {
      {&Lib.ArrivalOk, &Ref.ArrivalOk},
      {&Lib.TimestampsOk, &Ref.TimestampsOk},
      {&Lib.ProtocolOk, &Ref.ProtocolOk},
      {&Lib.FunctionalOk, &Ref.FunctionalOk},
      {&Lib.ConsistencyOk, &Ref.ConsistencyOk},
      {&Lib.WcetOk, &Ref.WcetOk},
      {&Lib.ScheduleOk, &Ref.ScheduleOk},
      {&Lib.ValidityOk, &Ref.ValidityOk}};
  for (const auto &[L, R] : Pairs)
    expectSame(*L, *R, "report", Where);
  ASSERT_EQ(Lib.Jobs.size(), Ref.Jobs.size()) << Where;
  for (std::size_t I = 0; I < Lib.Jobs.size(); ++I) {
    const JobVerdict &A = Lib.Jobs[I], &B = Ref.Jobs[I];
    ASSERT_TRUE(A.Msg == B.Msg && A.Task == B.Task &&
                A.ArrivalAt == B.ArrivalAt && A.Bound == B.Bound &&
                A.WithinHorizon == B.WithinHorizon &&
                A.Completed == B.Completed && A.CompletedAt == B.CompletedAt &&
                A.ResponseTime == B.ResponseTime && A.Holds == B.Holds)
        << "verdict " << I << " differs" << Where;
  }
}

/// Renames every marker of job \p From to \p To.
void renameJob(TimedTrace &TT, JobId From, JobId To) {
  for (MarkerEvent &E : TT.Tr)
    if (E.J && E.J->Id == From)
      E.J->Id = To;
}

/// Gives every marker of job \p Id the message \p Msg.
void setMsg(TimedTrace &TT, JobId Id, MsgId Msg) {
  for (MarkerEvent &E : TT.Tr)
    if (E.J && E.J->Id == Id)
      E.J->Msg = Msg;
}

/// The successful reads of \p TT, as (marker index, job).
std::vector<std::pair<std::size_t, Job>> reads(const TimedTrace &TT) {
  std::vector<std::pair<std::size_t, Job>> Out;
  for (std::size_t I = 0; I < TT.size(); ++I)
    if (TT.Tr[I].isSuccessfulRead())
      Out.emplace_back(I, *TT.Tr[I].J);
  return Out;
}

/// The marker index of job \p Id's M_Completion, or TT.size().
std::size_t completionOf(const TimedTrace &TT, JobId Id) {
  for (std::size_t I = 0; I < TT.size(); ++I)
    if (TT.Tr[I].Kind == MarkerKind::Completion && TT.Tr[I].J &&
        TT.Tr[I].J->Id == Id)
      return I;
  return TT.size();
}

/// An arrival sequence like \p Arr in which every \p Every-th arrival
/// (in arrivals() order) carries the message id of the one before it.
ArrivalSequence withDuplicateIds(const ArrivalSequence &Arr,
                                 std::size_t Every) {
  ArrivalSequence Out(Arr.numSockets());
  const std::vector<Arrival> &All = Arr.arrivals();
  for (std::size_t I = 0; I < All.size(); ++I) {
    Message M = All[I].Msg;
    if (I > 0 && I % Every == 0)
      M.Id = All[I - 1].Msg.Id;
    Out.addArrival(All[I].At, All[I].Socket, M);
  }
  return Out;
}

SchedPolicy policyOf(std::size_t K) {
  const SchedPolicy Ps[] = {SchedPolicy::Npfp, SchedPolicy::Edf,
                            SchedPolicy::Fifo};
  return Ps[K % 3];
}

} // namespace

TEST(SinkReference, DenseSystemsMatch) {
  const std::uint64_t Base = fuzzSeed(0);
  const std::string Replay =
      ", replay: RPROSA_FUZZ_SEED=" + std::to_string(Base);
  struct Shape {
    std::uint32_t Tasks, Sockets;
    std::uint64_t Arrivals;
  };
  const Shape Shapes[] = {{4, 2, 300}, {8, 7, 200}, {5, 4, 300},
                          {7, 3, 400}, {6, 8, 250}};
  std::size_t K = 0;
  for (const Shape &S : Shapes) {
    for (std::size_t P = 0; P < 3; ++P, ++K) {
      const AdequacySpec Spec =
          denseSpec(S.Tasks, S.Sockets, S.Arrivals, Base + K, policyOf(P));
      const std::string Where = "; dense system " + std::to_string(K) +
                                " (" + toString(policyOf(P)) + ")" + Replay;
      comparePipeline(Spec, Where);
      const TimedTrace TT =
          runRossl(Spec.Client, Spec.Arr, Spec.Limits.Horizon, Spec.Cost,
                   Spec.Seed);
      compareSinks(Spec.Client, Spec.Arr, TT, Where);
    }
  }
}

TEST(SinkReference, MutatedTracesMatch) {
  const std::uint64_t Base = fuzzSeed(0);
  const std::string Replay =
      ", replay: RPROSA_FUZZ_SEED=" + std::to_string(Base);
  std::size_t Mutants = 0;
  for (std::size_t RunIdx = 0; RunIdx < 60; ++RunIdx) {
    const std::uint64_t Seed = Base + RunIdx;
    const SimRun R = simulate(Seed);
    compareSinks(R.Client, R.Arr, R.TT,
                 "; run " + std::to_string(RunIdx) + Replay);
    SplitMix64 Rng(Seed * 104729 + 17);
    for (std::size_t K = 0; K < 20; ++K, ++Mutants) {
      TimedTrace M = R.TT;
      const std::string What =
          mutate(M, static_cast<Mutation>(Rng.nextInRange(0, 4)), Rng);
      compareSinks(R.Client, R.Arr, M,
                   "; run " + std::to_string(RunIdx) + ", mutant " +
                       std::to_string(K) + " (" + What + ")" + Replay);
    }
  }
  std::printf("[ sink_reference ] 60 traces + %zu mutants identical%s\n",
              Mutants, Replay.c_str());
}

TEST(SinkReference, HostileTracesMatch) {
  const std::uint64_t Base = fuzzSeed(0);
  const std::string Replay =
      ", replay: RPROSA_FUZZ_SEED=" + std::to_string(Base);
  std::size_t TwoKeys = 0, MsgTwice = 0, Reappears = 0, Missing = 0;
  for (std::size_t RunIdx = 0; RunIdx < 40; ++RunIdx) {
    const SimRun R = simulate(Base + 1000 + RunIdx);
    const auto Reads = reads(R.TT);
    const std::string Run = "; run " + std::to_string(RunIdx) + Replay;
    if (Reads.size() < 3)
      continue;
    // One job id read under two policy keys: a later read of another
    // task's job, before the first job's completion, takes its id.
    for (std::size_t B = 1; B < Reads.size(); ++B) {
      const Job &First = Reads[B - 1].second, &Second = Reads[B].second;
      if (First.Task == Second.Task ||
          completionOf(R.TT, First.Id) < Reads[B].first)
        continue;
      TimedTrace TT = R.TT;
      renameJob(TT, Second.Id, First.Id);
      compareSinks(R.Client, R.Arr, TT, "; id under two keys" + Run);
      ++TwoKeys;
      break;
    }
    // A message read twice.
    {
      TimedTrace TT = R.TT;
      setMsg(TT, Reads[2].second.Id, Reads[0].second.Msg);
      compareSinks(R.Client, R.Arr, TT, "; message read twice" + Run);
      ++MsgTwice;
    }
    // A job id that reappears after its completion.
    const std::size_t Done = completionOf(R.TT, Reads[0].second.Id);
    for (std::size_t B = 1; B < Reads.size(); ++B) {
      if (Reads[B].first < Done)
        continue;
      TimedTrace TT = R.TT;
      renameJob(TT, Reads[B].second.Id, Reads[0].second.Id);
      compareSinks(R.Client, R.Arr, TT, "; id reappears" + Run);
      ++Reappears;
      break;
    }
    // A read of a message missing from arr.
    {
      TimedTrace TT = R.TT;
      setMsg(TT, Reads[1].second.Id, MsgId(1) << 40);
      compareSinks(R.Client, R.Arr, TT, "; message not in arr" + Run);
      ++Missing;
    }
    // Duplicate message ids in arr, read by the simulator.
    {
      const ArrivalSequence Dup = withDuplicateIds(R.Arr, 3);
      const TimedTrace TT = runRossl(R.Client, Dup, 6000);
      compareSinks(R.Client, Dup, TT, "; duplicate ids in arr" + Run);
    }
  }
  EXPECT_GT(TwoKeys, 5u);
  EXPECT_GT(Reappears, 5u);
  std::printf("[ sink_reference ] hostile: %zu id-under-two-keys, %zu "
              "message-read-twice, %zu id-reappears, %zu missing-message "
              "traces identical%s\n",
              TwoKeys, MsgTwice, Reappears, Missing, Replay.c_str());
}

TEST(SinkReference, DuplicateMessageIdsInArrMatchThroughThePipeline) {
  const std::uint64_t Base = fuzzSeed(0);
  for (std::size_t K = 0; K < 6; ++K) {
    AdequacySpec Spec = denseSpec(5, 3, 200, Base + 50 + K, policyOf(K));
    Spec.Arr = withDuplicateIds(Spec.Arr, 2 + K);
    const AdequacyReport Rep = runAdequacyStreaming(Spec);
    EXPECT_FALSE(Rep.ArrivalOk.passed()) << "system " << K;
    comparePipeline(Spec, "; duplicate ids, system " + std::to_string(K) +
                              ", replay: RPROSA_FUZZ_SEED=" +
                              std::to_string(Base));
  }
}

TEST(SinkReference, OverloadedBacklogMatches) {
  // 16,667 jobs read and 11,700 of them still open at the end of each
  // run. The reference's (c) check scans every open record at each
  // selection, so its time grows with the square of the horizon: 40 ms
  // takes about 7 s for both policies in the default build, 60 ms (17,600
  // open) 15 s.
  for (SchedPolicy P : {SchedPolicy::Npfp, SchedPolicy::Fifo}) {
    const AdequacySpec Spec = overloadSpec(40 * TickMs, P);
    const AdequacyReport Rep = runAdequacyStreaming(Spec);
    std::size_t Completed = 0;
    for (const JobVerdict &V : Rep.Jobs)
      Completed += V.Completed;
    std::printf("[ sink_reference ] overload %s: %zu jobs admitted, %zu "
                "open at the end\n",
                toString(P).c_str(), Rep.NumJobs, Rep.NumJobs - Completed);
    EXPECT_GT(Rep.NumJobs - Completed, 10000u) << toString(P);
    comparePipeline(Spec, std::string("; overload, ") + toString(P));
    const AdequacySpec Short = overloadSpec(4 * TickMs, P);
    compareSinks(Short.Client, Short.Arr,
                 runRossl(Short.Client, Short.Arr, Short.Limits.Horizon),
                 std::string("; overload trace, ") + toString(P));
  }
}
