//===- convert/validity_stream.cpp ----------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "convert/validity_stream.h"

#include <algorithm>
#include <optional>

using namespace rprosa;

namespace {

// Constraint blocks in report order.
constexpr std::uint32_t BlockSegment = 0;  // (a) per-instance bounds.
constexpr std::uint32_t BlockUsage = 1;    // (a) totals + (d) segments.
constexpr std::uint32_t BlockArrival = 2;  // (b) + (e).
constexpr std::uint32_t BlockPolicy = 3;   // (c).
constexpr std::uint32_t BlockOrdering = 4; // (d) event ordering.

} // namespace

StreamingValidity::StreamingValidity(const TaskSet &Tasks,
                                     const ArrivalSequence &Arr,
                                     const BasicActionWcets &W,
                                     std::uint32_t NumSockets,
                                     SchedPolicy Policy)
    : Tasks(Tasks), Arr(Arr), W(W), Policy(Policy),
      PB(satMul(NumSockets, W.FailedRead)),
      RB(satAdd(satMul(NumSockets, W.FailedRead), W.SuccessfulRead)) {}

void StreamingValidity::fail(std::uint32_t Block, std::uint64_t K1,
                             std::uint64_t K2, std::string Msg) {
  Buffered.push_back(Pending{Block, K1, K2, std::move(Msg)});
}

void StreamingValidity::onScheduleStart(Time) {}

void StreamingValidity::onSegment(const ScheduleSegment &Seg) {
  const ProcState &St = Seg.State;
  const std::uint64_t K = SegIndex++;
  switch (St.Kind) {
  case ProcStateKind::Idle:
    break;
  case ProcStateKind::PollingOvh:
    R.noteCheck();
    ++usage(St.Job).PollingInstances;
    if (Seg.Len > PB)
      fail(BlockSegment, K, 0,
           "(a) PollingOvh(j" + std::to_string(St.Job) + ") lasts " +
               std::to_string(Seg.Len) + " > PB = " + std::to_string(PB) +
               " (Def. 2.2)");
    break;
  case ProcStateKind::SelectionOvh:
    R.noteCheck();
    if (Seg.Len > W.Selection)
      fail(BlockSegment, K, 0,
           "(a) SelectionOvh(j" + std::to_string(St.Job) + ") lasts " +
               std::to_string(Seg.Len) + " > SB = " +
               std::to_string(W.Selection));
    break;
  case ProcStateKind::DispatchOvh:
    R.noteCheck();
    if (Seg.Len > W.Dispatch)
      fail(BlockSegment, K, 0,
           "(a) DispatchOvh(j" + std::to_string(St.Job) + ") lasts " +
               std::to_string(Seg.Len) + " > DB = " +
               std::to_string(W.Dispatch));
    break;
  case ProcStateKind::CompletionOvh:
    R.noteCheck();
    if (Seg.Len > W.Completion)
      fail(BlockSegment, K, 0,
           "(a) CompletionOvh(j" + std::to_string(St.Job) + ") lasts " +
               std::to_string(Seg.Len) + " > CB = " +
               std::to_string(W.Completion));
    break;
  case ProcStateKind::ReadOvh:
    usage(St.Job).ReadOvh += Seg.Len;
    break;
  case ProcStateKind::Executes: {
    JobUsage &U = usage(St.Job);
    U.ExecTime += Seg.Len;
    ++U.ExecSegments;
    break;
  }
  }
}

void StreamingValidity::onJobAdmitted(const ConvertedJob &CJ,
                                      std::size_t Index) {
  // One record per job id: a second admission of an open id replaces
  // the record.
  auto H = Recs.insert(CJ.J.Id).first;
  VRec &Rec = Recs[H];
  Rec = VRec();
  Rec.Index = Index;
  Rec.Keyed = keyOf(CJ).has_value();
  if (Rec.Keyed)
    ++KeyedJobs;
  setSnapshot(H, CJ);

  // --- (b) consistency with the arrival sequence + (e) uniqueness. ---
  R.noteCheck(4);
  if (!SeenIds.insert(CJ.J.Id))
    fail(BlockArrival, Index, 0,
         "(e) duplicate job id j" + std::to_string(CJ.J.Id));
  if (!SeenMsgs.insert(CJ.J.Msg))
    fail(BlockArrival, Index, 1,
         "(b) message m" + std::to_string(CJ.J.Msg) + " scheduled twice");
  std::optional<Arrival> A = Arr.findMsg(CJ.J.Msg);
  if (!A) {
    fail(BlockArrival, Index, 2,
         "(b) scheduled job j" + std::to_string(CJ.J.Id) +
             " has no arrival in arr");
    return;
  }
  if (A->Msg.Task != CJ.J.Task)
    fail(BlockArrival, Index, 2,
         "(b) task of j" + std::to_string(CJ.J.Id) +
             " does not match its arrival");
  if (CJ.ReadAt <= A->At)
    fail(BlockArrival, Index, 3,
         "(b) j" + std::to_string(CJ.J.Id) + " read at t=" +
             std::to_string(CJ.ReadAt) + ", not after its arrival at t=" +
             std::to_string(A->At));
}

void StreamingValidity::setSnapshot(JobTable<JobId, VRec>::Handle H,
                                    const ConvertedJob &CJ) {
  VRec &Rec = Recs[H];
  Rec.CJ = CJ;
  std::optional<std::uint64_t> Key =
      Rec.Keyed ? keyOf(CJ) : std::optional<std::uint64_t>();
  if (Key)
    Recs.order(H, *Key);
  else
    Recs.unorder(H);
}

void StreamingValidity::onJobSelected(const ConvertedJob &CJ,
                                      std::size_t Index) {
  auto H = Recs.find(CJ.J.Id);
  if (H == Recs.None)
    return;
  setSnapshot(H, CJ);
  VRec &Rec = Recs[H];
  if (Rec.SelectedCounted || !Rec.Keyed)
    return;
  Rec.SelectedCounted = true;
  ++SelectedKeyed;

  // --- (c) policy-compliant selection among read jobs. ---
  // Checks run against the open jobs only: a retired competitor was
  // dispatched before this selection (StillPending false), a
  // not-yet-admitted one is read after it (ReadBefore false). Only a
  // keyed record whose key is below this job's can fail, and those are
  // the ones the order index visits; this job's own record carries its
  // key, so it is not among them. Pair checks are counted in
  // onScheduleEnd, once the number of keyed jobs is known.
  std::optional<std::uint64_t> Key = keyOf(CJ);
  if (!Key || !CJ.SelectedAt)
    return;
  Recs.visitBelow(*Key, [&](auto O) {
    const VRec &Other = Recs[O];
    bool ReadBefore = Other.CJ.ReadAt <= *CJ.SelectedAt;
    bool StillPending = !Other.CJ.DispatchedAt ||
                        *Other.CJ.DispatchedAt > *CJ.SelectedAt;
    if (ReadBefore && StillPending)
      fail(BlockPolicy, Index, Other.Index,
           "(c) j" + std::to_string(CJ.J.Id) + " selected at t=" +
               std::to_string(*CJ.SelectedAt) + " although read job j" +
               std::to_string(Other.CJ.J.Id) + " precedes it under " +
               toString(Policy) +
               " (schedule-level functional correctness)");
  });
}

void StreamingValidity::onJobDispatched(const ConvertedJob &CJ,
                                        std::size_t Index) {
  auto H = Recs.find(CJ.J.Id);
  if (H != Recs.None) {
    setSnapshot(H, CJ);
    Recs[H].Index = Index;
  }
}

void StreamingValidity::evalUsage(JobId Id, const JobUsage &U,
                                  const ConvertedJob *CJ) {
  R.noteCheck(3);
  if (U.ReadOvh > RB)
    fail(BlockUsage, Id, 0,
         "(a) total ReadOvh of j" + std::to_string(Id) + " is " +
             std::to_string(U.ReadOvh) + " > RB = " + std::to_string(RB));
  if (U.PollingInstances > 1)
    fail(BlockUsage, Id, 1,
         "(a) j" + std::to_string(Id) + " has " +
             std::to_string(U.PollingInstances) +
             " PollingOvh instances (at most one expected)");
  if (CJ && CJ->J.Task < Tasks.size() &&
      U.ExecTime > Tasks.task(CJ->J.Task).Wcet)
    fail(BlockUsage, Id, 2,
         "(a) j" + std::to_string(Id) + " executes for " +
             std::to_string(U.ExecTime) + " > C_i = " +
             std::to_string(Tasks.task(CJ->J.Task).Wcet));
  // --- (d) non-preemptive execution: one contiguous run. ---
  R.noteCheck();
  if (U.ExecSegments > 1)
    fail(BlockUsage, Id, 3,
         "(d) j" + std::to_string(Id) + " executes in " +
             std::to_string(U.ExecSegments) +
             " separate segments (non-preemptivity violated)");
}

void StreamingValidity::evalOrdering(const ConvertedJob &CJ,
                                     std::size_t Index) {
  // --- (d) per-job event ordering. ---
  R.noteCheck();
  Time Prev = CJ.ReadAt;
  bool Ordered = true;
  for (std::optional<Time> T :
       {CJ.SelectedAt, CJ.DispatchedAt, CJ.CompletedAt}) {
    if (!T)
      continue;
    if (*T < Prev)
      Ordered = false;
    Prev = *T;
  }
  if (!Ordered)
    fail(BlockOrdering, Index, 0,
         "(d) j" + std::to_string(CJ.J.Id) +
             " has out-of-order read/select/dispatch/complete times");
  if (CJ.CompletedAt && !CJ.DispatchedAt)
    fail(BlockOrdering, Index, 1,
         "(d) j" + std::to_string(CJ.J.Id) +
             " completed without being dispatched");
}

void StreamingValidity::onJobRetired(const ConvertedJob &CJ,
                                     std::size_t Index) {
  // The job's segments are all behind us on conformant traces: settle
  // its usage block and its ordering block now and drop its state.
  auto U = Usage.find(CJ.J.Id);
  if (U != Usage.None) {
    evalUsage(CJ.J.Id, Usage[U], &CJ);
    Usage.erase(U);
  }
  evalOrdering(CJ, Index);
  if (auto H = Recs.find(CJ.J.Id); H != Recs.None)
    Recs.erase(H);
}

void StreamingValidity::onScheduleEnd(
    const std::vector<std::pair<std::size_t, ConvertedJob>> &Open) {
  // Refresh the open records to their final snapshots.
  for (const auto &[Index, CJ] : Open) {
    auto H = Recs.find(CJ.J.Id);
    if (H != Recs.None) {
      setSnapshot(H, CJ);
      Recs[H].Index = Index;
    }
  }

  // Usage of jobs that never retired: open jobs, plus jobs that only
  // ever executed (the converter admits no record for those, so CJ is
  // null). Each id has one usage entry, and its failures sort by id, so
  // the visiting order does not show.
  Usage.forEach([&](auto U) {
    const JobId Id = Usage.key(U);
    auto H = Recs.find(Id);
    evalUsage(Id, Usage[U], H != Recs.None ? &Recs[H].CJ : nullptr);
  });
  Usage.clear();

  // (c) pair-check count: one check per (selected keyed job, other
  // keyed table entry) pair. Table entries that share a job id share one
  // record: they count once as a selected job, but each as a competitor.
  if (SelectedKeyed > 0)
    R.noteCheck(SelectedKeyed * (KeyedJobs - 1));

  // Ordering block for the never-retired jobs.
  for (const auto &[Index, CJ] : Open)
    evalOrdering(CJ, Index);

  // Emit everything in report order.
  std::stable_sort(Buffered.begin(), Buffered.end(),
                   [](const Pending &A, const Pending &B) {
                     if (A.Block != B.Block)
                       return A.Block < B.Block;
                     if (A.K1 != B.K1)
                       return A.K1 < B.K1;
                     return A.K2 < B.K2;
                   });
  for (Pending &P : Buffered)
    R.addFailure(std::move(P.Msg));
  Buffered.clear();
}
