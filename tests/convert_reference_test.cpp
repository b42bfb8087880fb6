//===- tests/convert_reference_test.cpp - Library vs reference, mutants ---===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Differential test of the §2.4 entry points on malformed input: the
/// library (convertTraceToSchedule and checkValidity, replay adapters
/// over ScheduleBuilder and StreamingValidity) against the whole-trace
/// reference implementations (reference_batch.h). Seeded FdScheduler
/// runs each get single-marker mutants: drop a marker, duplicate one,
/// swap two neighbours, truncate, or rewrite a job id. Timestamps stay
/// non-decreasing, which is the library's precondition.
///
/// Conversion (schedule, job table, diagnostics) and validity over the
/// same ConversionResult must be identical, except for three known
/// divergences, each admitted only under its named predicate and
/// counted:
///
///  - recurringJobId: a job id reappears after that job's M_Completion.
///    The library opens a second table entry; the reference merges both
///    into one. Schedules still agree.
///  - diagnosticOrder: a polling phase spans more than one round and
///    ends in a truncated one. Same diagnostics; the library reports
///    them in trace order, the reference reports the truncation first.
///  - sharedJobIds: validity over a table in which two entries share a
///    job id (the library's table after a recurring id). Both checkers
///    report "(e) duplicate job id". The library keeps one record per
///    id, so it checks fewer (c) pairs: it may miss (c) lines that the
///    reference reports, and its check count differs.
///
//===----------------------------------------------------------------------===//

#include "convert/trace_to_schedule.h"
#include "convert/validity.h"
#include "sim/workload.h"
#include "support/rng.h"

#include "reference_batch.h"
#include "test_util.h"
#include "trace_mutants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <set>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

constexpr std::size_t NumRuns = 60;
constexpr std::size_t MutantsPerRun = 20;

// --- The named predicates of the known divergences. ---

/// A job id appears on a marker after that job's M_Completion.
bool recurringJobId(const Trace &Tr) {
  std::set<JobId> Completed;
  for (const MarkerEvent &E : Tr) {
    if (!E.J)
      continue;
    if (Completed.count(E.J->Id))
      return true;
    if (E.Kind == MarkerKind::Completion)
      Completed.insert(E.J->Id);
  }
  return false;
}

/// Some maximal run of Read actions spans more than one round and ends
/// in a truncated round.
bool truncatedMultiRoundPhase(const TimedTrace &TT, std::uint32_t N) {
  std::size_t Reads = 0;
  const auto Truncated = [&] { return Reads > N && Reads % N != 0; };
  for (const BasicAction &A : reference::segmentBasicActions(TT)) {
    if (A.Kind == BasicActionKind::Read) {
      ++Reads;
      continue;
    }
    if (Truncated())
      return true;
    Reads = 0;
  }
  return Truncated();
}

/// Two table entries share a job id.
bool sharedJobIds(const ConversionResult &CR) {
  std::set<JobId> Ids;
  for (const ConvertedJob &CJ : CR.Jobs)
    if (!Ids.insert(CJ.J.Id).second)
      return true;
  return false;
}

// --- Comparisons. ---

bool sameSchedule(const Schedule &A, const Schedule &B) {
  if (A.startTime() != B.startTime() ||
      A.segments().size() != B.segments().size())
    return false;
  for (std::size_t I = 0; I < A.segments().size(); ++I) {
    const ScheduleSegment &X = A.segments()[I];
    const ScheduleSegment &Y = B.segments()[I];
    if (X.Start != Y.Start || X.Len != Y.Len || !(X.State == Y.State))
      return false;
  }
  return true;
}

bool sameJobs(const std::vector<ConvertedJob> &A,
              const std::vector<ConvertedJob> &B) {
  if (A.size() != B.size())
    return false;
  for (std::size_t I = 0; I < A.size(); ++I) {
    if (A[I].J.Id != B[I].J.Id || A[I].J.Msg != B[I].J.Msg ||
        A[I].J.Task != B[I].J.Task || A[I].ReadAt != B[I].ReadAt ||
        A[I].SelectedAt != B[I].SelectedAt ||
        A[I].DispatchedAt != B[I].DispatchedAt ||
        A[I].CompletedAt != B[I].CompletedAt)
      return false;
  }
  return true;
}

bool sameCheck(const CheckResult &A, const CheckResult &B) {
  return A.checksPerformed() == B.checksPerformed() &&
         A.failures() == B.failures();
}

bool sameFailureSet(const CheckResult &A, const CheckResult &B) {
  std::vector<std::string> X = A.failures(), Y = B.failures();
  std::sort(X.begin(), X.end());
  std::sort(Y.begin(), Y.end());
  return A.checksPerformed() == B.checksPerformed() && X == Y;
}

/// The sharedJobIds allowance: both sides report the duplicate id, and
/// the library's failures are the reference's minus some (c) lines.
bool onlyPolicyPairsDiffer(const CheckResult &Lib, const CheckResult &Ref) {
  const auto DuplicateId = [](const CheckResult &R) {
    return R.describe().find("(e) duplicate job id") != std::string::npos;
  };
  std::vector<std::string> L = Lib.failures(), F = Ref.failures();
  std::sort(L.begin(), L.end());
  std::sort(F.begin(), F.end());
  std::vector<std::string> Missing;
  if (!std::includes(F.begin(), F.end(), L.begin(), L.end()))
    return false;
  std::set_difference(F.begin(), F.end(), L.begin(), L.end(),
                      std::back_inserter(Missing));
  for (const std::string &M : Missing)
    if (M.rfind("(c) ", 0) != 0)
      return false;
  return DuplicateId(Lib) && DuplicateId(Ref);
}

struct Tally {
  std::size_t Traces = 0;
  std::size_t Mutants = 0;
  std::size_t EndOnBareReadS = 0;
  std::size_t RecurringJobId = 0;
  std::size_t DiagnosticOrder = 0;
  std::size_t SharedJobIds = 0;
};

/// Compares library and reference on one trace; \p Where names the trace
/// in failure messages.
void compare(const SimRun &R, const TimedTrace &TT, Tally &T,
             const std::string &Where) {
  const std::uint32_t N = R.Client.NumSockets;
  CheckResult RefDiags, LibDiags;
  const ConversionResult Ref =
      reference::convertTraceToSchedule(TT, N, &RefDiags);
  const ConversionResult Lib = convertTraceToSchedule(TT, N, &LibDiags);

  EXPECT_TRUE(sameSchedule(Lib.Sched, Ref.Sched))
      << "schedules differ" << Where;
  if (!sameJobs(Lib.Jobs, Ref.Jobs)) {
    ++T.RecurringJobId;
    EXPECT_TRUE(recurringJobId(TT.Tr)) << "job tables differ" << Where;
  }
  if (!sameCheck(LibDiags, RefDiags)) {
    ++T.DiagnosticOrder;
    EXPECT_TRUE(truncatedMultiRoundPhase(TT, N) &&
                sameFailureSet(LibDiags, RefDiags))
        << "conversion diagnostics differ:\n"
        << LibDiags.describe() << "--- reference ---\n"
        << RefDiags.describe() << Where;
  }

  for (const ConversionResult *CR : {&Ref, &Lib}) {
    const CheckResult RefV =
        reference::checkValidity(*CR, R.Client.Tasks, R.Arr, R.Client.Wcets,
                                 N, R.Client.Policy);
    const CheckResult LibV = checkValidity(
        *CR, R.Client.Tasks, R.Arr, R.Client.Wcets, N, R.Client.Policy);
    if (sameCheck(LibV, RefV))
      continue;
    ++T.SharedJobIds;
    EXPECT_TRUE(sharedJobIds(*CR) && onlyPolicyPairsDiffer(LibV, RefV))
        << "validity differs over the "
        << (CR == &Ref ? "reference" : "library") << " table ("
        << LibV.checksPerformed() << " vs " << RefV.checksPerformed()
        << " checks):\n"
        << LibV.describe() << "--- reference ---\n"
        << RefV.describe() << Where;
  }
}

} // namespace

TEST(ConvertReference, MutatedTracesMatchOutsideKnownDivergences) {
  const std::uint64_t Base = fuzzSeed(0);
  const std::string Replay =
      ", replay: RPROSA_FUZZ_SEED=" + std::to_string(Base);
  Tally T;
  for (std::size_t RunIdx = 0; RunIdx < NumRuns; ++RunIdx) {
    const std::uint64_t Seed = Base + RunIdx;
    const SimRun R = simulate(Seed);
    ASSERT_GT(R.TT.size(), 20u) << "run " << RunIdx << Replay;
    compare(R, R.TT, T, "; run " + std::to_string(RunIdx) + Replay);
    ++T.Traces;

    SplitMix64 Rng(Seed * 104729 + 17);
    for (std::size_t K = 0; K < MutantsPerRun; ++K) {
      TimedTrace M = R.TT;
      const Mutation Kind = static_cast<Mutation>(Rng.nextInRange(0, 4));
      const std::string What = mutate(M, Kind, Rng);
      T.EndOnBareReadS += M.Tr.back().Kind == MarkerKind::ReadS;
      compare(R, M, T,
              "; run " + std::to_string(RunIdx) + ", mutant " +
                  std::to_string(K) + " (" + What + ")" + Replay);
      ++T.Mutants;
    }
  }
  std::printf("[ convert_reference ] %zu traces + %zu mutants (%zu end on a "
              "bare M_ReadS); identical except recurringJobId %zu, "
              "diagnosticOrder %zu, sharedJobIds %zu%s\n",
              T.Traces, T.Mutants, T.EndOnBareReadS, T.RecurringJobId,
              T.DiagnosticOrder, T.SharedJobIds, Replay.c_str());
  EXPECT_EQ(T.Mutants, NumRuns * MutantsPerRun);
}
