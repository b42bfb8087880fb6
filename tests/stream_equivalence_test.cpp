//===- tests/stream_equivalence_test.cpp - Reference vs streaming ---------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The streaming §2.4 sinks against the whole-trace reference
/// implementations (reference_batch.h) on random simulated workloads:
/// identical schedules, identical ConvertedJob tables, identical
/// conversion diagnostics and validity verdicts. At report level,
/// runAdequacy (the single-pass driver plus capture sinks) and
/// runAdequacyStreaming must render byte-identical reports, and the
/// reference, run on runAdequacy's captured trace, re-derives the
/// conversion, ScheduleOk, ValidityOk and every verdict's completion.
/// The references share no conversion or validity code with the sinks,
/// so they stay an independent oracle. Seeded via RPROSA_FUZZ_SEED.
///
//===----------------------------------------------------------------------===//

#include "adequacy/pipeline.h"
#include "convert/schedule_builder.h"
#include "convert/validity.h"
#include "convert/validity_stream.h"
#include "sim/workload.h"
#include "support/rng.h"

#include "reference_batch.h"
#include "test_util.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

/// Random task sets in the same envelope the end-to-end fuzz test uses.
TaskSet randomTasks(SplitMix64 &Rng) {
  TaskSet TS;
  std::size_t N = Rng.nextInRange(1, 5);
  for (std::size_t I = 0; I < N; ++I) {
    Duration Wcet = Rng.nextInRange(10, 80);
    Duration Period = Wcet * Rng.nextInRange(8, 40);
    Priority Prio = static_cast<Priority>(Rng.nextInRange(1, 4));
    Duration Deadline = Period / Rng.nextInRange(1, 4) + 1;
    ArrivalCurvePtr Curve;
    switch (Rng.nextInRange(0, 2)) {
    case 0:
      Curve = std::make_shared<PeriodicCurve>(Period);
      break;
    case 1:
      Curve = std::make_shared<LeakyBucketCurve>(Rng.nextInRange(1, 3),
                                                 Period);
      break;
    default:
      Curve = std::make_shared<PeriodicJitterCurve>(
          Period, Period / Rng.nextInRange(5, 20));
      break;
    }
    TS.addTask("t" + std::to_string(I), Wcet, Prio, std::move(Curve),
               Deadline);
  }
  return TS;
}

AdequacySpec randomSpec(std::uint64_t Param, std::uint64_t Base) {
  SplitMix64 Rng(Param * 6151 + 29 + Base);
  AdequacySpec Spec;
  Spec.Client.Tasks = randomTasks(Rng);
  Spec.Client.NumSockets =
      static_cast<std::uint32_t>(Rng.nextInRange(1, 6));
  Spec.Client.Wcets = tinyWcets();
  switch (Rng.nextInRange(0, 2)) {
  case 0:
    Spec.Client.Policy = SchedPolicy::Npfp;
    break;
  case 1:
    Spec.Client.Policy = SchedPolicy::Edf;
    break;
  default:
    Spec.Client.Policy = SchedPolicy::Fifo;
    break;
  }
  WorkloadSpec WSpec;
  WSpec.NumSockets = Spec.Client.NumSockets;
  WSpec.Horizon = 6000;
  WSpec.Seed = Param + Base;
  WSpec.Style = Rng.nextBernoulli(1, 2) ? WorkloadStyle::Random
                                        : WorkloadStyle::GreedyDense;
  Spec.Arr = generateWorkload(Spec.Client.Tasks, WSpec);
  Spec.Cost = Rng.nextBernoulli(1, 2) ? CostModelKind::AlwaysWcet
                                      : CostModelKind::Uniform;
  Spec.Seed = Param + Base;
  Spec.Limits.Horizon = 100000;
  return Spec;
}

void expectSameCheck(const CheckResult &Got, const CheckResult &Want,
                     const char *Which, const std::string &Replay) {
  EXPECT_EQ(Got.passed(), Want.passed()) << Which << Replay;
  EXPECT_EQ(Got.checksPerformed(), Want.checksPerformed())
      << Which << Replay;
  EXPECT_EQ(Got.describe(), Want.describe()) << Which << Replay;
}

void expectSameJobs(const std::vector<ConvertedJob> &Got,
                    const std::vector<ConvertedJob> &Want,
                    const std::string &Replay) {
  ASSERT_EQ(Got.size(), Want.size()) << Replay;
  for (std::size_t I = 0; I < Want.size(); ++I) {
    EXPECT_EQ(Got[I].J.Id, Want[I].J.Id) << "job " << I << Replay;
    EXPECT_EQ(Got[I].J.Msg, Want[I].J.Msg) << "job " << I << Replay;
    EXPECT_EQ(Got[I].J.Task, Want[I].J.Task) << "job " << I << Replay;
    EXPECT_EQ(Got[I].ReadAt, Want[I].ReadAt) << "job " << I << Replay;
    EXPECT_EQ(Got[I].SelectedAt, Want[I].SelectedAt)
        << "job " << I << Replay;
    EXPECT_EQ(Got[I].DispatchedAt, Want[I].DispatchedAt)
        << "job " << I << Replay;
    EXPECT_EQ(Got[I].CompletedAt, Want[I].CompletedAt)
        << "job " << I << Replay;
  }
}

void expectSameSchedule(const Schedule &Got, const Schedule &Want,
                        const std::string &Replay) {
  EXPECT_EQ(Got.startTime(), Want.startTime()) << Replay;
  ASSERT_EQ(Got.segments().size(), Want.segments().size()) << Replay;
  for (std::size_t I = 0; I < Want.segments().size(); ++I) {
    const ScheduleSegment &G = Got.segments()[I];
    const ScheduleSegment &W = Want.segments()[I];
    EXPECT_EQ(G.Start, W.Start) << "segment " << I << Replay;
    EXPECT_EQ(G.Len, W.Len) << "segment " << I << Replay;
    EXPECT_TRUE(G.State == W.State) << "segment " << I << Replay;
  }
}

/// The report-level oracle: re-derives, from \p Rep.TT alone, the
/// conversion, ScheduleOk (reference diagnostics plus validateStructure),
/// ValidityOk, and each verdict's completion (the first table entry per
/// message owns it) with the reference implementations.
void expectReportMatchesReference(const AdequacySpec &Spec,
                                  const AdequacyReport &Rep,
                                  const std::string &Replay) {
  const std::uint32_t N = Spec.Client.NumSockets;
  ASSERT_EQ(Rep.TT.size(), Rep.Markers) << Replay;
  CheckResult Diags;
  ConversionResult Conv =
      reference::convertTraceToSchedule(Rep.TT, N, &Diags);
  expectSameSchedule(Rep.Conv.Sched, Conv.Sched, Replay);
  expectSameJobs(Rep.Conv.Jobs, Conv.Jobs, Replay);
  Diags.merge(Conv.Sched.validateStructure());
  expectSameCheck(Rep.ScheduleOk, Diags, "schedule vs reference", Replay);
  expectSameCheck(Rep.ValidityOk,
                  reference::checkValidity(Conv, Spec.Client.Tasks,
                                           Spec.Arr, Spec.Client.Wcets, N,
                                           Spec.Client.Policy),
                  "validity vs reference", Replay);

  std::map<MsgId, std::optional<Time>> ByMsg;
  for (const ConvertedJob &CJ : Conv.Jobs)
    ByMsg.emplace(CJ.J.Msg, CJ.CompletedAt);
  ASSERT_EQ(Rep.Jobs.size(), Spec.Arr.arrivals().size()) << Replay;
  for (std::size_t I = 0; I < Rep.Jobs.size(); ++I) {
    const JobVerdict &V = Rep.Jobs[I];
    auto It = ByMsg.find(V.Msg);
    const bool Completed = It != ByMsg.end() && It->second.has_value();
    EXPECT_EQ(V.Completed, Completed) << "verdict " << I << Replay;
    if (Completed) {
      EXPECT_EQ(V.CompletedAt, *It->second) << "verdict " << I << Replay;
    }
  }
}

class StreamEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

} // namespace

TEST_P(StreamEquivalence, ConverterAndValidityMatchBatch) {
  const std::uint64_t Base = fuzzSeed(0);
  AdequacySpec Spec = randomSpec(GetParam(), Base);
  const std::string Replay = "; param " + std::to_string(GetParam()) +
                             ", replay: RPROSA_FUZZ_SEED=" +
                             std::to_string(Base) + " (base seed)";
  Environment Env(Spec.Arr);
  CostModel Costs(Spec.Client.Wcets, Spec.Cost, Spec.Seed);
  FdScheduler Sched(Spec.Client, Env, Costs);
  TimedTrace TT = Sched.run(Spec.Limits);
  const std::uint32_t N = Spec.Client.NumSockets;

  CheckResult BatchDiags;
  ConversionResult Batch =
      reference::convertTraceToSchedule(TT, N, &BatchDiags);
  CheckResult BatchValidity =
      reference::checkValidity(Batch, Spec.Client.Tasks, Spec.Arr,
                               Spec.Client.Wcets, N, Spec.Client.Policy);

  CheckResult StreamDiags;
  ScheduleCapture Cap;
  StreamingValidity Val(Spec.Client.Tasks, Spec.Arr, Spec.Client.Wcets, N,
                        Spec.Client.Policy);
  ScheduleStructureSink Struct;
  ScheduleEventFanout Events;
  Events.add(Cap);
  Events.add(Val);
  Events.add(Struct);
  ScheduleBuilder Builder(N, Events, &StreamDiags);
  replayTimedTrace(TT, Builder);
  ConversionResult Streamed = Cap.take();

  expectSameSchedule(Streamed.Sched, Batch.Sched, Replay);
  expectSameJobs(Streamed.Jobs, Batch.Jobs, Replay);
  expectSameCheck(StreamDiags, BatchDiags, "conversion diags", Replay);
  expectSameCheck(Struct.take(), Batch.Sched.validateStructure(),
                  "structure", Replay);
  expectSameCheck(Val.take(), BatchValidity, "validity", Replay);
  // The library's replay adapter over the same table.
  expectSameCheck(checkValidity(Batch, Spec.Client.Tasks, Spec.Arr,
                                Spec.Client.Wcets, N, Spec.Client.Policy),
                  BatchValidity, "validity adapter", Replay);
}

TEST_P(StreamEquivalence, AdequacyReportsByteIdentical) {
  const std::uint64_t Base = fuzzSeed(0);
  AdequacySpec Spec = randomSpec(GetParam() + 1000, Base);
  const std::string Replay = "; param " + std::to_string(GetParam()) +
                             ", replay: RPROSA_FUZZ_SEED=" +
                             std::to_string(Base) + " (base seed)";

  AdequacyReport Batch = runAdequacy(Spec);
  AdequacyReport Streamed = runAdequacyStreaming(Spec);

  // The one-line gate: the rendered reports must agree to the byte.
  EXPECT_EQ(Streamed.summary(), Batch.summary()) << Replay;

  EXPECT_EQ(Streamed.Horizon, Batch.Horizon) << Replay;
  EXPECT_EQ(Streamed.Markers, Batch.Markers) << Replay;
  EXPECT_EQ(Streamed.NumJobs, Batch.NumJobs) << Replay;
  EXPECT_EQ(Streamed.totalChecks(), Batch.totalChecks()) << Replay;
  expectSameCheck(Streamed.StaticOk, Batch.StaticOk, "static", Replay);
  expectSameCheck(Streamed.ArrivalOk, Batch.ArrivalOk, "arrival", Replay);
  expectSameCheck(Streamed.TimestampsOk, Batch.TimestampsOk, "timestamps",
                  Replay);
  expectSameCheck(Streamed.ProtocolOk, Batch.ProtocolOk, "protocol",
                  Replay);
  expectSameCheck(Streamed.FunctionalOk, Batch.FunctionalOk, "functional",
                  Replay);
  expectSameCheck(Streamed.ConsistencyOk, Batch.ConsistencyOk,
                  "consistency", Replay);
  expectSameCheck(Streamed.WcetOk, Batch.WcetOk, "wcet", Replay);
  expectSameCheck(Streamed.ScheduleOk, Batch.ScheduleOk, "schedule",
                  Replay);
  expectSameCheck(Streamed.ValidityOk, Batch.ValidityOk, "validity",
                  Replay);

  ASSERT_EQ(Streamed.Jobs.size(), Batch.Jobs.size()) << Replay;
  for (std::size_t I = 0; I < Batch.Jobs.size(); ++I) {
    const JobVerdict &S = Streamed.Jobs[I];
    const JobVerdict &B = Batch.Jobs[I];
    EXPECT_EQ(S.Msg, B.Msg) << "verdict " << I << Replay;
    EXPECT_EQ(S.Task, B.Task) << "verdict " << I << Replay;
    EXPECT_EQ(S.ArrivalAt, B.ArrivalAt) << "verdict " << I << Replay;
    EXPECT_EQ(S.Bound, B.Bound) << "verdict " << I << Replay;
    EXPECT_EQ(S.WithinHorizon, B.WithinHorizon) << "verdict " << I
                                                << Replay;
    EXPECT_EQ(S.Completed, B.Completed) << "verdict " << I << Replay;
    EXPECT_EQ(S.CompletedAt, B.CompletedAt) << "verdict " << I << Replay;
    EXPECT_EQ(S.ResponseTime, B.ResponseTime) << "verdict " << I << Replay;
    EXPECT_EQ(S.Holds, B.Holds) << "verdict " << I << Replay;
  }

  // The streaming report must not have materialized anything.
  EXPECT_EQ(Streamed.TT.size(), 0u) << Replay;
  EXPECT_EQ(Streamed.Conv.Jobs.size(), 0u) << Replay;

  expectReportMatchesReference(Spec, Batch, Replay);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(StreamEquivalenceSoak, DenseLongRunStaysByteIdentical) {
  // One deterministic long dense run on top of the random sweep: the
  // byte-identity gate at a scale where every converter code path
  // (multi-round phases, empty selections, backlogged queues) occurs.
  AdequacySpec Spec;
  Spec.Client = makeClient(mixedTasks(), 3);
  WorkloadSpec WS;
  WS.NumSockets = 3;
  WS.Horizon = 60000;
  WS.Style = WorkloadStyle::GreedyDense;
  Spec.Arr = generateWorkload(Spec.Client.Tasks, WS);
  Spec.Limits.Horizon = 120000;

  AdequacyReport Batch = runAdequacy(Spec);
  AdequacyReport Streamed = runAdequacyStreaming(Spec);
  ASSERT_GT(Batch.Markers, 1000u) << "soak run too small to be a test";
  EXPECT_EQ(Streamed.summary(), Batch.summary());
  EXPECT_EQ(Streamed.totalChecks(), Batch.totalChecks());
  expectReportMatchesReference(Spec, Batch, " (soak run)");
}
