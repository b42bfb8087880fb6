//===- tests/reference_sinks.cpp ------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
// The bodies below are the library's as they were before the sinks kept
// their open per-job state in JobTable and looked messages up through
// the arrival index. Only the class names' namespace changed.
//===----------------------------------------------------------------------===//

#include "reference_sinks.h"

#include "rta/rta_policies.h"
#include "sim/environment.h"
#include "trace/check_sinks.h"

#include <algorithm>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <utility>

namespace rprosa::reference {

void ProtocolCheckSink::onMarker(const MarkerEvent &E, Time At) {
  (void)At;
  if (Done) {
    ++Index;
    return;
  }
  R.noteCheck();
  std::string Why;
  if (!Sts.step(E, &Why)) {
    R.addFailure("protocol violation at marker " + std::to_string(Index) +
                 ": " + Why);
    Done = true; // The batch checker stops at the first rejection.
  }
  ++Index;
}

namespace {

const char *keyName(SchedPolicy Policy) {
  switch (Policy) {
  case SchedPolicy::Npfp:
    return "highest-priority";
  case SchedPolicy::Edf:
    return "earliest-deadline";
  case SchedPolicy::Fifo:
    return "first-read";
  }
  return "?";
}

} // namespace

std::size_t FunctionalCheckSink::pendingJobs() const {
  std::size_t N = 0;
  for (const auto &[K, Ids] : Pending)
    N += Ids.size();
  return N;
}

void FunctionalCheckSink::onMarker(const MarkerEvent &E, Time At) {
  (void)At;
  const std::size_t I = Index++;
  switch (E.Kind) {
  case MarkerKind::ReadE: {
    if (!E.J)
      break;
    R.noteCheck();
    // Property 3: unique identifiers.
    if (!SeenJobIds.insert(E.J->Id))
      R.addFailure("marker " + std::to_string(I) + ": job id j" +
                   std::to_string(E.J->Id) + " read twice (Def. 3.2 "
                   "uniqueness violated)");
    std::optional<std::uint64_t> K =
        policyKey(Policy, Tasks.findTask(E.J->Task), E.J->ReadAt, E.J->Id);
    if (!K) {
      R.addFailure("marker " + std::to_string(I) + ": read job of "
                   "unknown task or missing policy key");
      break;
    }
    Pending[*K].insert(E.J->Id);
    break;
  }
  case MarkerKind::Dispatch: {
    R.noteCheck(2);
    if (!E.J) {
      R.addFailure("marker " + std::to_string(I) + ": dispatch with no "
                   "job");
      break;
    }
    std::optional<std::uint64_t> K =
        policyKey(Policy, Tasks.findTask(E.J->Task), E.J->ReadAt, E.J->Id);
    if (!K) {
      R.addFailure("marker " + std::to_string(I) + ": dispatched job "
                   "of unknown task or missing policy key");
      break;
    }
    // Property 1a: the job must be pending.
    auto It = Pending.find(*K);
    bool IsPending = It != Pending.end() && It->second.count(E.J->Id);
    if (!IsPending) {
      R.addFailure("marker " + std::to_string(I) + ": dispatched j" +
                   std::to_string(E.J->Id) + " is not pending");
      break;
    }
    // Property 1b: no other pending job precedes it in policy order.
    auto First = Pending.begin();
    if (First->first < *K)
      R.addFailure("marker " + std::to_string(I) + ": dispatched j" +
                   std::to_string(E.J->Id) +
                   " although another pending job comes first under "
                   "the " + toString(Policy) + " policy (Def. 3.2 " +
                   keyName(Policy) + " violated)");
    // Retire the job's pending state (O(open jobs) discipline).
    It->second.erase(E.J->Id);
    if (It->second.empty())
      Pending.erase(It);
    break;
  }
  case MarkerKind::Idling: {
    R.noteCheck();
    // Property 2: idling only with no pending jobs.
    if (!Pending.empty())
      R.addFailure("marker " + std::to_string(I) + ": M_Idling while "
                   "jobs are pending (Def. 3.2 idling violated)");
    break;
  }
  default:
    break;
  }
}

ConsistencyCheckSink::ConsistencyCheckSink(const ArrivalSequence &Arr)
    : PerSock(Arr.numSockets()), Verified(Arr.numSockets(), 0) {
  for (const Arrival &A : Arr.arrivals()) {
    ByMsg.emplace(A.Msg.Id, A);
    if (A.Socket < PerSock.size())
      PerSock[A.Socket].push_back(A); // arrivals() is time-sorted.
  }
}

void ConsistencyCheckSink::onMarker(const MarkerEvent &E, Time At) {
  const std::size_t I = Index++;
  if (E.Kind != MarkerKind::ReadE)
    return;
  if (E.Socket >= PerSock.size()) {
    R.addFailure("marker " + std::to_string(I) + ": read of socket s" +
                 std::to_string(E.Socket) + " outside the arrival "
                 "sequence's socket range");
    return;
  }

  if (E.isSuccessfulRead()) {
    R.noteCheck(3);
    const Job &J = *E.J;
    auto It = ByMsg.find(J.Msg);
    // Condition 1: the job must originate from the arrival sequence...
    if (It == ByMsg.end()) {
      R.addFailure("marker " + std::to_string(I) + ": read message m" +
                   std::to_string(J.Msg) + " never arrives in arr");
      return;
    }
    const Arrival &A = It->second;
    // ...on the same socket, with the task type the classifier infers...
    if (A.Socket != E.Socket)
      R.addFailure("marker " + std::to_string(I) + ": message m" +
                   std::to_string(J.Msg) + " read from s" +
                   std::to_string(E.Socket) + " but arrived on s" +
                   std::to_string(A.Socket));
    if (A.Msg.Task != J.Task)
      R.addFailure("marker " + std::to_string(I) + ": task type of read "
                   "job does not match the arrived message");
    // ...and strictly after its arrival: t_a < ts[i].
    if (A.At >= At)
      R.addFailure("marker " + std::to_string(I) + ": job j" +
                   std::to_string(J.Id) + " read at t=" +
                   std::to_string(At) + " but arrives only at t=" +
                   std::to_string(A.At) + " (Def. 2.1 cond. 1)");
    if (!ReadMsgs.insert(J.Msg))
      R.addFailure("marker " + std::to_string(I) + ": message m" +
                   std::to_string(J.Msg) + " read twice");
    return;
  }

  // Failed read: every arrival on this socket strictly before ts[i]
  // must already have been read (Def. 2.1 cond. 2).
  auto &Socks = PerSock[E.Socket];
  std::size_t &V = Verified[E.Socket];
  while (V < Socks.size() && Socks[V].At < At) {
    R.noteCheck();
    if (!ReadMsgs.contains(Socks[V].Msg.Id))
      R.addFailure("marker " + std::to_string(I) + ": failed read on s" +
                   std::to_string(E.Socket) + " at t=" +
                   std::to_string(At) + " although message m" +
                   std::to_string(Socks[V].Msg.Id) + " arrived at t=" +
                   std::to_string(Socks[V].At) + " and was not read "
                   "(Def. 2.1 cond. 2)");
    ++V;
  }
}

DeadlineCheckSink::DeadlineCheckSink(const TaskSet &Tasks,
                                     const ArrivalSequence &Arr)
    : Tasks(Tasks) {
  for (const Arrival &A : Arr.arrivals())
    ArrivalAt.emplace(A.Msg.Id, A.At);
}

void DeadlineCheckSink::onMarker(const MarkerEvent &E, Time At) {
  if (E.isSuccessfulRead()) {
    auto It = ArrivalAt.find(E.J->Msg);
    // Unknown messages are the consistency checker's business; a
    // deadline verdict needs the arrival instant, so skip them here.
    if (It != ArrivalAt.end())
      Open.emplace(E.J->Id, std::make_pair(E.J->Msg, It->second));
    return;
  }
  if (E.Kind != MarkerKind::Completion || !E.J)
    return;
  auto It = Open.find(E.J->Id);
  if (It == Open.end())
    return;
  auto [Msg, Arrived] = It->second;
  Open.erase(It);
  if (E.J->Task >= Tasks.size())
    return;
  const Task &T = Tasks.task(E.J->Task);
  if (T.Deadline == 0)
    return; // Unconstrained task.
  R.noteCheck();
  Duration Response = At >= Arrived ? At - Arrived : 0;
  if (Response > T.Deadline) {
    Misses.push_back(DeadlineMiss{E.J->Id, Msg, E.J->Task, Arrived, At,
                                  Response, T.Deadline});
    R.addFailure("job j" + std::to_string(E.J->Id) + " of task " + T.Name +
                 " (message m" + std::to_string(Msg) + ") arrived at t=" +
                 std::to_string(Arrived) + " and completed at t=" +
                 std::to_string(At) + ": response " +
                 std::to_string(Response) + " exceeds the deadline " +
                 std::to_string(T.Deadline));
  }
}

//===----------------------------------------------------------------------===//
// ScheduleBuilder
//===----------------------------------------------------------------------===//

ScheduleBuilder::ScheduleBuilder(std::uint32_t NumSockets,
                                 ScheduleEventConsumer &Out,
                                 CheckResult *Diags)
    : NumSockets(NumSockets), Out(Out), Diags(Diags),
      Seg([this](const BasicAction &A, Time ReadEAt) {
        processAction(A, ReadEAt);
      }) {
  RPROSA_CHECK(NumSockets > 0, "need at least one socket");
}

void ScheduleBuilder::onMarker(const MarkerEvent &E, Time At) {
  RPROSA_CHECK(!HaveTs || LastTs <= At,
               "markers must be delivered in timestamp order");
  LastTs = At;
  HaveTs = true;
  Seg.onMarker(E, At);
}

void ScheduleBuilder::onEnd(Time EndTime) {
  RPROSA_CHECK(!HaveTs || LastTs <= EndTime,
               "EndTime must not precede the last marker");
  Seg.onEnd(EndTime);

  // Close whatever structure is still open (a polling phase ends with
  // the trace).
  if (Phase == PhaseState::InPhase) {
    endPhaseNoSelection(/*AtEnd=*/true);
    Phase = PhaseState::Top;
  } else if (Phase == PhaseState::AwaitAfterSel) {
    // Selection is the last action: final round and selection are Idle,
    // and with nothing after the selection there is no diagnostic.
    emit(ProcState::idle(), FinalRoundLen + HeldSel->len());
    HeldSel.reset();
    Phase = PhaseState::Top;
  }
  flushSeg();

  std::vector<std::pair<std::size_t, ConvertedJob>> Open;
  Open.reserve(Recs.size());
  for (const auto &[Id, R] : Recs)
    Open.emplace_back(R.Index, R.CJ);
  std::sort(Open.begin(), Open.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  Out.onScheduleEnd(Open);
}

void ScheduleBuilder::diag(std::string Message) {
  if (Diags)
    Diags->addFailure(std::move(Message));
}

ScheduleBuilder::Rec &ScheduleBuilder::jobEntry(const Job &J, bool &IsNew) {
  auto It = Recs.find(J.Id);
  if (It != Recs.end()) {
    IsNew = false;
    return It->second;
  }
  IsNew = true;
  Rec R;
  R.CJ.J = J;
  R.Index = NumAdmitted++;
  return Recs.emplace(J.Id, std::move(R)).first->second;
}

void ScheduleBuilder::emit(ProcState S, Duration Len) {
  if (Len == 0)
    return;
  if (SegOpen && PendingSeg.State == S) {
    PendingSeg.Len += Len;
  } else {
    flushSeg();
    PendingSeg.Start = Cursor;
    PendingSeg.Len = Len;
    PendingSeg.State = S;
    SegOpen = true;
  }
  Cursor += Len;
}

void ScheduleBuilder::flushSeg() {
  if (!SegOpen)
    return;
  SegOpen = false;
  Out.onSegment(PendingSeg);
}

void ScheduleBuilder::processAction(const BasicAction &A, Time ReadEAt) {
  if (!Started) {
    Started = true;
    Cursor = A.Start;
    Out.onScheduleStart(A.Start);
  }
  switch (Phase) {
  case PhaseState::Top:
    if (A.Kind == BasicActionKind::Read) {
      Phase = PhaseState::InPhase;
      PhaseReads = 0;
      pushRead(A, ReadEAt);
      return;
    }
    topLevel(A);
    return;

  case PhaseState::InPhase:
    if (A.Kind == BasicActionKind::Read) {
      pushRead(A, ReadEAt);
      return;
    }
    if (A.Kind == BasicActionKind::Selection) {
      holdFinalRound();
      HeldSel = A;
      Phase = PhaseState::AwaitAfterSel;
      return;
    }
    endPhaseNoSelection(/*AtEnd=*/false);
    Phase = PhaseState::Top;
    topLevel(A);
    return;

  case PhaseState::AwaitAfterSel:
    afterSelection(A, ReadEAt);
    return;
  }
}

void ScheduleBuilder::pushRead(const BasicAction &A, Time ReadEAt) {
  // The window holds the potential final round; the moment another read
  // arrives, the held round is known to be a pre-final one (and thus
  // ReadOvh-attributable) and can be flushed.
  if (Window.size() == NumSockets) {
    attributeRound(Window);
    Window.clear();
  }
  Window.push_back(RAct{A.J, A.len(), ReadEAt});
  ++PhaseReads;
}

void ScheduleBuilder::attributeRound(const std::vector<RAct> &Round) {
  // Chunk boundaries: every success absorbs the failures since the
  // previous chunk; the last success absorbs the trailing failures too.
  std::size_t LastSuccess = Round.size();
  for (std::size_t K = 0; K < Round.size(); ++K)
    if (Round[K].J)
      LastSuccess = K;
  if (LastSuccess == Round.size()) {
    // No success: can only happen on malformed input (the final
    // all-failed round is held in the window, never attributed here).
    diag("polling round without a successful read outside the final "
         "round; mapped to Idle");
    for (const RAct &R : Round)
      emit(ProcState::idle(), R.Len);
    return;
  }
  Duration Buffered = 0;
  for (std::size_t K = 0; K < Round.size(); ++K) {
    const RAct &A = Round[K];
    if (!A.J) {
      Buffered += A.Len;
      continue;
    }
    Duration ChunkLen = Buffered + A.Len;
    if (K == LastSuccess) {
      for (std::size_t T = K + 1; T < Round.size(); ++T)
        ChunkLen += Round[T].Len;
    }
    emit(ProcState::overhead(ProcStateKind::ReadOvh, A.J->Id), ChunkLen);
    bool IsNew = false;
    Rec &R = jobEntry(*A.J, IsNew);
    // ReadAt is the M_ReadE timestamp (the segmenter recorded it when
    // it absorbed the read-result marker).
    R.CJ.ReadAt = A.ReadEAt;
    if (IsNew)
      Out.onJobAdmitted(R.CJ, R.Index);
    Buffered = 0;
    if (K == LastSuccess)
      break;
  }
}

void ScheduleBuilder::holdFinalRound() {
  // A selection arrived: the window is the phase's final round if it is
  // complete, a truncated round otherwise (malformed input).
  if (Window.size() == NumSockets) {
    FinalRoundLen = 0;
    for (const RAct &R : Window)
      FinalRoundLen += R.Len;
  } else {
    diag("polling phase with a truncated round (" +
         std::to_string(PhaseReads) + " reads, " +
         std::to_string(NumSockets) + " sockets)");
    attributeRound(Window);
    FinalRoundLen = 0;
  }
  Window.clear();
}

void ScheduleBuilder::endPhaseNoSelection(bool AtEnd) {
  if (Window.size() == NumSockets) {
    // Truncated run: the final all-failed round closes with Idle.
    Duration Len = 0;
    for (const RAct &R : Window)
      Len += R.Len;
    emit(ProcState::idle(), Len);
  } else {
    diag("polling phase with a truncated round (" +
         std::to_string(PhaseReads) + " reads, " +
         std::to_string(NumSockets) + " sockets)");
    attributeRound(Window);
  }
  Window.clear();
  if (!AtEnd)
    diag("polling phase not followed by a selection");
}

void ScheduleBuilder::afterSelection(const BasicAction &A, Time ReadEAt) {
  if (A.Kind == BasicActionKind::Disp && A.J) {
    JobId Next = A.J->Id;
    emit(ProcState::overhead(ProcStateKind::PollingOvh, Next), FinalRoundLen);
    emit(ProcState::overhead(ProcStateKind::SelectionOvh, Next),
         HeldSel->len());
    bool IsNew = false;
    Rec &R = jobEntry(*A.J, IsNew);
    R.CJ.SelectedAt = HeldSel->Start;
    if (IsNew)
      Out.onJobAdmitted(R.CJ, R.Index);
    Out.onJobSelected(R.CJ, R.Index);
    HeldSel.reset();
    Phase = PhaseState::Top;
    topLevel(A); // The Disp action itself: DispatchOvh.
    return;
  }

  // Selection came up empty: final round + selection (+ idle cycle) are
  // all Idle (§2.4).
  if (A.Kind == BasicActionKind::Idling) {
    emit(ProcState::idle(), FinalRoundLen + HeldSel->len() + A.len());
    HeldSel.reset();
    Phase = PhaseState::Top;
    return;
  }
  diag("selection with no job followed by " + toString(A.Kind) +
       " instead of Idling");
  emit(ProcState::idle(), FinalRoundLen + HeldSel->len());
  HeldSel.reset();
  Phase = PhaseState::Top;
  processAction(A, ReadEAt);
}

void ScheduleBuilder::topLevel(const BasicAction &A) {
  switch (A.Kind) {
  case BasicActionKind::Read:
    RPROSA_CHECK(false, "reads are handled by the phase machine");
    return;
  case BasicActionKind::Disp:
    if (A.J) {
      emit(ProcState::overhead(ProcStateKind::DispatchOvh, A.J->Id), A.len());
      bool IsNew = false;
      Rec &R = jobEntry(*A.J, IsNew);
      R.CJ.DispatchedAt = A.Start;
      if (IsNew)
        Out.onJobAdmitted(R.CJ, R.Index);
      Out.onJobDispatched(R.CJ, R.Index);
    } else {
      diag("dispatch action without a job; mapped to Idle");
      emit(ProcState::idle(), A.len());
    }
    return;
  case BasicActionKind::Exec:
    if (A.J) {
      emit(ProcState::executes(A.J->Id), A.len());
    } else {
      diag("execution action without a job; mapped to Idle");
      emit(ProcState::idle(), A.len());
    }
    return;
  case BasicActionKind::Compl:
    if (A.J) {
      emit(ProcState::overhead(ProcStateKind::CompletionOvh, A.J->Id),
           A.len());
      bool IsNew = false;
      Rec &R = jobEntry(*A.J, IsNew);
      R.CJ.CompletedAt = A.Start;
      if (IsNew)
        Out.onJobAdmitted(R.CJ, R.Index);
      // Retirement: the record leaves the live table — this keeps the
      // builder's state O(open jobs) over arbitrarily long runs.
      ConvertedJob Done = R.CJ;
      std::size_t Index = R.Index;
      Recs.erase(A.J->Id);
      Out.onJobRetired(Done, Index);
    } else {
      diag("completion action without a job; mapped to Idle");
      emit(ProcState::idle(), A.len());
    }
    return;
  case BasicActionKind::Selection:
  case BasicActionKind::Idling:
    // Only reachable on malformed traces (selections are consumed by
    // the phase machine).
    diag("unexpected top-level " + toString(A.Kind) + "; mapped to Idle");
    emit(ProcState::idle(), A.len());
    return;
  }
}

//===----------------------------------------------------------------------===//
// StreamingValidity
//===----------------------------------------------------------------------===//

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
    ++Usage[St.Job].PollingInstances;
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
    Usage[St.Job].ReadOvh += Seg.Len;
    break;
  case ProcStateKind::Executes:
    Usage[St.Job].ExecTime += Seg.Len;
    ++Usage[St.Job].ExecSegments;
    break;
  }
}

void StreamingValidity::onJobAdmitted(const ConvertedJob &CJ,
                                      std::size_t Index) {
  VRec Rec;
  Rec.CJ = CJ;
  Rec.Index = Index;
  Rec.Keyed = policyKey(Policy, Tasks.findTask(CJ.J.Task), CJ.ReadAt, CJ.J.Id)
                  .has_value();
  if (Rec.Keyed)
    ++KeyedJobs;
  Recs[CJ.J.Id] = std::move(Rec);

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

void StreamingValidity::onJobSelected(const ConvertedJob &CJ,
                                      std::size_t Index) {
  auto It = Recs.find(CJ.J.Id);
  if (It == Recs.end())
    return;
  VRec &Rec = It->second;
  Rec.CJ = CJ;
  if (Rec.SelectedCounted || !Rec.Keyed)
    return;
  Rec.SelectedCounted = true;
  ++SelectedKeyed;

  // --- (c) policy-compliant selection among read jobs. ---
  // Checks run against the open jobs only: a retired competitor was
  // dispatched before this selection (StillPending false), a
  // not-yet-admitted one is read after it (ReadBefore false). Pair
  // checks are counted in onScheduleEnd, once the number of keyed jobs
  // is known.
  std::optional<std::uint64_t> Key =
      policyKey(Policy, Tasks.findTask(CJ.J.Task), CJ.ReadAt, CJ.J.Id);
  if (!Key || !CJ.SelectedAt)
    return;
  for (const auto &[OtherId, Other] : Recs) {
    if (OtherId == CJ.J.Id || !Other.Keyed)
      continue;
    std::optional<std::uint64_t> OtherKey =
        policyKey(Policy, Tasks.findTask(Other.CJ.J.Task), Other.CJ.ReadAt,
                  Other.CJ.J.Id);
    if (!OtherKey)
      continue;
    bool ReadBefore = Other.CJ.ReadAt <= *CJ.SelectedAt;
    bool StillPending = !Other.CJ.DispatchedAt ||
                        *Other.CJ.DispatchedAt > *CJ.SelectedAt;
    if (ReadBefore && StillPending && *OtherKey < *Key)
      fail(BlockPolicy, Index, Other.Index,
           "(c) j" + std::to_string(CJ.J.Id) + " selected at t=" +
               std::to_string(*CJ.SelectedAt) + " although read job j" +
               std::to_string(Other.CJ.J.Id) + " precedes it under " +
               toString(Policy) +
               " (schedule-level functional correctness)");
  }
}

void StreamingValidity::onJobDispatched(const ConvertedJob &CJ,
                                        std::size_t Index) {
  auto It = Recs.find(CJ.J.Id);
  if (It != Recs.end()) {
    It->second.CJ = CJ;
    It->second.Index = Index;
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
  if (U != Usage.end()) {
    evalUsage(CJ.J.Id, U->second, &CJ);
    Usage.erase(U);
  }
  evalOrdering(CJ, Index);
  Recs.erase(CJ.J.Id);
}

void StreamingValidity::onScheduleEnd(
    const std::vector<std::pair<std::size_t, ConvertedJob>> &Open) {
  // Refresh the open records to their final snapshots.
  for (const auto &[Index, CJ] : Open) {
    auto It = Recs.find(CJ.J.Id);
    if (It != Recs.end()) {
      It->second.CJ = CJ;
      It->second.Index = Index;
    }
  }

  // Usage of jobs that never retired: open jobs, plus jobs that only
  // ever executed (the converter admits no record for those, so CJ is
  // null).
  for (const auto &[Id, U] : Usage) {
    auto It = Recs.find(Id);
    evalUsage(Id, U, It != Recs.end() ? &It->second.CJ : nullptr);
  }
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

//===----------------------------------------------------------------------===//
// uniqueMsgIds and the driver
//===----------------------------------------------------------------------===//

CheckResult uniqueMsgIds(const ArrivalSequence &Arr) {
  CheckResult R;
  std::set<MsgId> Seen;
  for (const Arrival &A : Arr.arrivals()) {
    R.noteCheck();
    if (!Seen.insert(A.Msg.Id).second)
      R.addFailure("duplicate message id " + std::to_string(A.Msg.Id));
  }
  return R;
}

namespace {

/// Steps 1-2: assumptions on the model and the workload.
void checkAssumptions(const AdequacySpec &Spec, AdequacyReport &Rep) {
  Rep.StaticOk = validateClient(Spec.Client);
  Rep.ArrivalOk = Spec.Arr.respectsCurves(Spec.Client.Tasks);
  Rep.ArrivalOk.merge(uniqueMsgIds(Spec.Arr));
}

/// Step 6: the RTA matching the client's policy, from StaticTiming when
/// set and from the hand-supplied tables otherwise.
void runRta(const AdequacySpec &Spec, AdequacyReport &Rep) {
  TimingInputs In{Spec.Client.Wcets, {}, TimingSource::HandSupplied};
  Rep.Rta = analyzePolicy(Spec.Client.Tasks,
                          Spec.StaticTiming ? *Spec.StaticTiming : In,
                          Spec.Client.NumSockets, Spec.Client.Policy,
                          Spec.Rta);
}

/// Step 7: per-job verdicts. Completion is matched by message identity
/// (job ids are assigned at read time, arrivals are identified by
/// MsgId) through \p Compl.
void renderVerdicts(const AdequacySpec &Spec, AdequacyReport &Rep,
                    const CompletionIndex &Compl) {
  for (const Arrival &A : Spec.Arr.arrivals()) {
    JobVerdict V;
    V.Msg = A.Msg.Id;
    V.Task = A.Msg.Task;
    V.ArrivalAt = A.At;
    if (V.Task < Rep.Rta.PerTask.size() &&
        Rep.Rta.forTask(V.Task).Bounded)
      V.Bound = Rep.Rta.forTask(V.Task).ResponseBound;
    Time Deadline = satAdd(V.ArrivalAt, V.Bound);
    V.WithinHorizon = Deadline != TimeInfinity && Deadline < Rep.Horizon;
    if (std::optional<Time> C = Compl.completion(A.Msg.Id)) {
      V.Completed = true;
      V.CompletedAt = *C;
      V.ResponseTime = V.CompletedAt - V.ArrivalAt;
    }
    V.Holds = !V.WithinHorizon || (V.Completed && V.CompletedAt <= Deadline);
    Rep.Jobs.push_back(V);
  }
}

} // namespace

AdequacyReport runAdequacyStreaming(const AdequacySpec &Spec) {
  AdequacyReport Rep;
  checkAssumptions(Spec, Rep);

  Environment Env(Spec.Arr);
  CostModel Costs(Spec.Client.Wcets, Spec.Cost, Spec.Seed);
  FdScheduler Sched(Spec.Client, Env, Costs);

  StreamingValidity Val(Spec.Client.Tasks, Spec.Arr, Spec.Client.Wcets,
                        Spec.Client.NumSockets, Spec.Client.Policy);
  ScheduleStructureSink Struct;
  CompletionIndex Compl;
  ScheduleEventFanout Events;
  Events.add(Val);
  Events.add(Struct);
  Events.add(Compl);

  TimestampCheckSink Ts;
  ProtocolCheckSink Prot(Spec.Client.NumSockets);
  FunctionalCheckSink Fun(Spec.Client.Tasks, Spec.Client.Policy);
  ConsistencyCheckSink Cons(Spec.Arr);
  WcetCheckSink Wcet(Spec.Client.Tasks, Spec.Client.Wcets);
  ScheduleBuilder Builder(Spec.Client.NumSockets, Events, &Rep.ScheduleOk);
  TraceFanout Fan;
  for (TraceSink *S : std::initializer_list<TraceSink *>{
           &Ts, &Prot, &Fun, &Cons, &Wcet, &Builder})
    Fan.add(*S);

  Rep.Horizon = Sched.run(Spec.Limits, Fan);
  Rep.Markers = Ts.markers();
  Rep.NumJobs = Builder.admittedJobs();

  Rep.TimestampsOk = Ts.take();
  Rep.ProtocolOk = Prot.take();
  Rep.FunctionalOk = Fun.take();
  Rep.ConsistencyOk = Cons.take();
  Rep.WcetOk = Wcet.take();
  Rep.ScheduleOk.merge(Struct.take());
  Rep.ValidityOk = Val.take();

  runRta(Spec, Rep);
  renderVerdicts(Spec, Rep, Compl);
  return Rep;
}

} // namespace rprosa::reference
