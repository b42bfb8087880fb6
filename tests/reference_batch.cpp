//===- tests/reference_batch.cpp ------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "reference_batch.h"

#include <cassert>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>

using namespace rprosa;

//===----------------------------------------------------------------------===//
// Basic actions (Fig. 4)
//===----------------------------------------------------------------------===//

std::vector<BasicAction>
rprosa::reference::segmentBasicActions(const TimedTrace &TT) {
  std::vector<BasicAction> Out;
  const Trace &Tr = TT.Tr;
  std::size_t N = Tr.size();

  auto endOf = [&](std::size_t LastMarker) {
    return LastMarker + 1 < N ? TT.Ts[LastMarker + 1] : TT.EndTime;
  };

  // Malformed marker shapes take the defensive path in every build mode
  // (the differential suite feeds this parser mutated traces).
  for (std::size_t I = 0; I < N;) {
    BasicAction A;
    A.FirstMarker = I;
    A.Start = TT.Ts[I];
    switch (Tr[I].Kind) {
    case MarkerKind::ReadS: {
      A.Kind = BasicActionKind::Read;
      if (I + 1 == N) {
        // The trace ends on a bare M_ReadS: a failed read up to EndTime.
        A.EndMarker = I + 1;
        A.End = TT.EndTime;
        break;
      }
      // Coalesce M_ReadS with the following M_ReadE (§2.2).
      A.Socket = Tr[I + 1].Socket;
      A.J = Tr[I + 1].J;
      A.EndMarker = I + 2;
      A.End = endOf(I + 1);
      break;
    }
    case MarkerKind::Selection: {
      // Look ahead to resolve Selection j vs Selection ⊥.
      A.Kind = BasicActionKind::Selection;
      if (I + 1 < N && Tr[I + 1].Kind == MarkerKind::Dispatch)
        A.J = Tr[I + 1].J;
      A.EndMarker = I + 1;
      A.End = endOf(I);
      break;
    }
    case MarkerKind::Dispatch:
      A.Kind = BasicActionKind::Disp;
      A.J = Tr[I].J;
      A.EndMarker = I + 1;
      A.End = endOf(I);
      break;
    case MarkerKind::Execution:
      A.Kind = BasicActionKind::Exec;
      A.J = Tr[I].J;
      A.EndMarker = I + 1;
      A.End = endOf(I);
      break;
    case MarkerKind::Completion:
      A.Kind = BasicActionKind::Compl;
      A.J = Tr[I].J;
      A.EndMarker = I + 1;
      A.End = endOf(I);
      break;
    case MarkerKind::Idling:
      A.Kind = BasicActionKind::Idling;
      A.EndMarker = I + 1;
      A.End = endOf(I);
      break;
    case MarkerKind::ReadE:
      // Dangling M_ReadE: the default Idling action.
      A.EndMarker = I + 1;
      A.End = endOf(I);
      break;
    }
    I = A.EndMarker;
    Out.push_back(A);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Trace -> schedule conversion (§2.4)
//===----------------------------------------------------------------------===//

namespace {

/// Builds the schedule by walking the basic actions of one run.
class Converter {
public:
  Converter(const TimedTrace &TT, std::uint32_t NumSockets,
            CheckResult *Diags)
      : TT(TT), NumSockets(NumSockets), Diags(Diags),
        Actions(reference::segmentBasicActions(TT)) {}

  ConversionResult run();

private:
  void diag(std::string Message) {
    if (Diags)
      Diags->addFailure(std::move(Message));
  }

  ConvertedJob &jobEntry(const Job &J);

  /// Attributes one polling round that contains at least one successful
  /// read: each success takes the failures before it; the round's last
  /// success additionally takes the trailing failures.
  void attributeSuccessRound(std::size_t First, std::size_t End);

  /// Emits \p Len instants of \p S (appends contiguously).
  void emit(ProcState S, Duration Len) { Res.Sched.append(S, Len); }

  /// Processes a maximal polling phase starting at action index \p I
  /// (a Read action) together with the following selection; returns the
  /// index of the first unprocessed action.
  std::size_t processPollingPhase(std::size_t I);

  const TimedTrace &TT;
  std::uint32_t NumSockets;
  CheckResult *Diags;
  std::vector<BasicAction> Actions;
  ConversionResult Res;
  std::map<JobId, std::size_t> JobIndex;
};

ConvertedJob &Converter::jobEntry(const Job &J) {
  auto It = JobIndex.find(J.Id);
  if (It != JobIndex.end())
    return Res.Jobs[It->second];
  ConvertedJob CJ;
  CJ.J = J;
  JobIndex.emplace(J.Id, Res.Jobs.size());
  Res.Jobs.push_back(CJ);
  return Res.Jobs.back();
}

void Converter::attributeSuccessRound(std::size_t First, std::size_t End) {
  // Chunk boundaries: every success absorbs the failures since the
  // previous chunk; the last success absorbs the trailing failures too.
  std::size_t LastSuccess = End;
  for (std::size_t K = First; K < End; ++K)
    if (Actions[K].J)
      LastSuccess = K;
  if (LastSuccess == End) {
    // No success: can only happen on malformed input (the caller sends
    // all-failed rounds elsewhere). Map to Idle defensively.
    diag("polling round without a successful read outside the final "
         "round; mapped to Idle");
    for (std::size_t K = First; K < End; ++K)
      emit(ProcState::idle(), Actions[K].len());
    return;
  }
  Duration Buffered = 0;
  for (std::size_t K = First; K < End; ++K) {
    const BasicAction &A = Actions[K];
    if (!A.J) {
      Buffered += A.len();
      continue;
    }
    // A successful read of job *A.J; its chunk covers the buffered
    // failures, itself, and — when it is the last success — the rest of
    // the round.
    Duration ChunkLen = Buffered + A.len();
    if (K == LastSuccess) {
      for (std::size_t T = K + 1; T < End; ++T)
        ChunkLen += Actions[T].len();
    }
    emit(ProcState::overhead(ProcStateKind::ReadOvh, A.J->Id), ChunkLen);
    ConvertedJob &CJ = jobEntry(*A.J);
    // ReadAt is the M_ReadE timestamp (FirstMarker is M_ReadS).
    CJ.ReadAt = TT.Ts[A.FirstMarker + 1];
    Buffered = 0;
    if (K == LastSuccess)
      break;
  }
}

std::size_t Converter::processPollingPhase(std::size_t I) {
  std::size_t FirstRead = I;
  while (I < Actions.size() && Actions[I].Kind == BasicActionKind::Read)
    ++I;
  std::size_t EndRead = I;
  std::size_t NumReads = EndRead - FirstRead;

  // Round structure (protocol: rounds of exactly NumSockets reads, the
  // last one all-failed).
  std::size_t FullRounds = NumReads / NumSockets;
  bool CompleteRounds = NumReads % NumSockets == 0;
  if (!CompleteRounds)
    diag("polling phase with a truncated round (" +
         std::to_string(NumReads) + " reads, " +
         std::to_string(NumSockets) + " sockets)");

  // Locate what follows the phase.
  const BasicAction *Sel =
      I < Actions.size() && Actions[I].Kind == BasicActionKind::Selection
          ? &Actions[I]
          : nullptr;
  const BasicAction *AfterSel =
      Sel && I + 1 < Actions.size() ? &Actions[I + 1] : nullptr;
  bool DispatchNext =
      AfterSel && AfterSel->Kind == BasicActionKind::Disp && AfterSel->J;

  // Rounds before the final one each contain a success.
  std::size_t FinalRoundFirst = FirstRead;
  if (CompleteRounds && FullRounds >= 1)
    FinalRoundFirst = FirstRead + (FullRounds - 1) * NumSockets;
  else
    FinalRoundFirst = EndRead; // Truncated: attribute everything below.

  for (std::size_t R = 0; FirstRead + (R + 1) * NumSockets <=
                          FinalRoundFirst; ++R)
    attributeSuccessRound(FirstRead + R * NumSockets,
                          FirstRead + (R + 1) * NumSockets);
  if (!CompleteRounds) {
    // Defensive: attribute all remaining reads chunk-wise.
    std::size_t Done = FirstRead +
                       ((FinalRoundFirst - FirstRead) / NumSockets) *
                           NumSockets;
    if (Done < EndRead)
      attributeSuccessRound(Done, EndRead);
    FinalRoundFirst = EndRead;
  }

  // The final all-failed round (present iff rounds were complete).
  Duration FinalRoundLen = 0;
  for (std::size_t K = FinalRoundFirst; K < EndRead; ++K)
    FinalRoundLen += Actions[K].len();

  if (!Sel) {
    // Truncated run: no selection followed; close with Idle.
    emit(ProcState::idle(), FinalRoundLen);
    if (I != Actions.size())
      diag("polling phase not followed by a selection");
    return I;
  }

  if (DispatchNext) {
    JobId Next = AfterSel->J->Id;
    emit(ProcState::overhead(ProcStateKind::PollingOvh, Next),
         FinalRoundLen);
    emit(ProcState::overhead(ProcStateKind::SelectionOvh, Next),
         Sel->len());
    jobEntry(*AfterSel->J).SelectedAt = Sel->Start;
    return I + 1; // The Disp action is processed by the main loop.
  }

  // Selection came up empty: final round + selection (+ idle cycle) are
  // all Idle (§2.4: "If there is no job to execute after the polling
  // phase, the failed reads (and the following failed selection) are
  // mapped to the Idle processor state").
  Duration IdleLen = FinalRoundLen + Sel->len();
  std::size_t NextI = I + 1;
  if (AfterSel && AfterSel->Kind == BasicActionKind::Idling) {
    IdleLen += AfterSel->len();
    NextI = I + 2;
  } else if (AfterSel) {
    diag("selection with no job followed by " + toString(AfterSel->Kind) +
         " instead of Idling");
    NextI = I + 1;
  }
  emit(ProcState::idle(), IdleLen);
  return NextI;
}

ConversionResult Converter::run() {
  if (Actions.empty())
    return std::move(Res);
  Res.Sched = Schedule(Actions.front().Start);

  std::size_t I = 0;
  while (I < Actions.size()) {
    const BasicAction &A = Actions[I];
    switch (A.Kind) {
    case BasicActionKind::Read:
      I = processPollingPhase(I);
      break;
    case BasicActionKind::Disp:
      if (A.J) {
        emit(ProcState::overhead(ProcStateKind::DispatchOvh, A.J->Id),
             A.len());
        jobEntry(*A.J).DispatchedAt = A.Start;
      } else {
        diag("dispatch action without a job; mapped to Idle");
        emit(ProcState::idle(), A.len());
      }
      ++I;
      break;
    case BasicActionKind::Exec:
      if (A.J) {
        emit(ProcState::executes(A.J->Id), A.len());
      } else {
        diag("execution action without a job; mapped to Idle");
        emit(ProcState::idle(), A.len());
      }
      ++I;
      break;
    case BasicActionKind::Compl:
      if (A.J) {
        emit(ProcState::overhead(ProcStateKind::CompletionOvh, A.J->Id),
             A.len());
        jobEntry(*A.J).CompletedAt = A.Start;
      } else {
        diag("completion action without a job; mapped to Idle");
        emit(ProcState::idle(), A.len());
      }
      ++I;
      break;
    case BasicActionKind::Selection:
    case BasicActionKind::Idling:
      // Only reachable on malformed traces (selections are consumed by
      // processPollingPhase).
      diag("unexpected top-level " + toString(A.Kind) + "; mapped to Idle");
      emit(ProcState::idle(), A.len());
      ++I;
      break;
    }
  }
  return std::move(Res);
}

} // namespace

ConversionResult rprosa::reference::convertTraceToSchedule(
    const TimedTrace &TT, std::uint32_t NumSockets, CheckResult *Diags) {
  assert(NumSockets > 0 && "need at least one socket");
  Converter C(TT, NumSockets, Diags);
  return C.run();
}

//===----------------------------------------------------------------------===//
// Validity constraints (a)-(e)
//===----------------------------------------------------------------------===//

namespace {

/// Per-job accumulated quantities over the schedule segments.
struct JobUsage {
  Duration ReadOvh = 0;
  Duration ExecTime = 0;
  std::size_t ExecSegments = 0;
  std::size_t PollingInstances = 0;
};

/// The policy's selection key over converted jobs (smaller = selected
/// first); nullopt when the job lacks the data the key needs.
std::optional<std::uint64_t> selectionKey(const ConvertedJob &CJ,
                                          const TaskSet &Tasks,
                                          SchedPolicy Policy) {
  if (CJ.J.Task >= Tasks.size())
    return std::nullopt;
  const Task &T = Tasks.task(CJ.J.Task);
  switch (Policy) {
  case SchedPolicy::Npfp:
    return std::numeric_limits<std::uint64_t>::max() - T.Prio;
  case SchedPolicy::Edf:
    if (T.Deadline == 0)
      return std::nullopt;
    return satAdd(CJ.ReadAt, T.Deadline);
  case SchedPolicy::Fifo:
    return CJ.J.Id;
  }
  return std::nullopt;
}

} // namespace

CheckResult rprosa::reference::checkValidity(const ConversionResult &CR,
                                             const TaskSet &Tasks,
                                             const ArrivalSequence &Arr,
                                             const BasicActionWcets &W,
                                             std::uint32_t NumSockets,
                                             SchedPolicy Policy) {
  CheckResult R;
  const Schedule &S = CR.Sched;

  Duration PB = satMul(NumSockets, W.FailedRead);
  Duration RB = satAdd(satMul(NumSockets, W.FailedRead), W.SuccessfulRead);

  // --- (a) per-instance duration bounds + usage accumulation. ---
  std::map<JobId, JobUsage> Usage;
  for (const ScheduleSegment &Seg : S.segments()) {
    const ProcState &St = Seg.State;
    switch (St.Kind) {
    case ProcStateKind::Idle:
      break;
    case ProcStateKind::PollingOvh:
      R.noteCheck();
      ++Usage[St.Job].PollingInstances;
      if (Seg.Len > PB)
        R.addFailure("(a) PollingOvh(j" + std::to_string(St.Job) +
                     ") lasts " + std::to_string(Seg.Len) +
                     " > PB = " + std::to_string(PB) + " (Def. 2.2)");
      break;
    case ProcStateKind::SelectionOvh:
      R.noteCheck();
      if (Seg.Len > W.Selection)
        R.addFailure("(a) SelectionOvh(j" + std::to_string(St.Job) +
                     ") lasts " + std::to_string(Seg.Len) + " > SB = " +
                     std::to_string(W.Selection));
      break;
    case ProcStateKind::DispatchOvh:
      R.noteCheck();
      if (Seg.Len > W.Dispatch)
        R.addFailure("(a) DispatchOvh(j" + std::to_string(St.Job) +
                     ") lasts " + std::to_string(Seg.Len) + " > DB = " +
                     std::to_string(W.Dispatch));
      break;
    case ProcStateKind::CompletionOvh:
      R.noteCheck();
      if (Seg.Len > W.Completion)
        R.addFailure("(a) CompletionOvh(j" + std::to_string(St.Job) +
                     ") lasts " + std::to_string(Seg.Len) + " > CB = " +
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

  for (const auto &[JId, U] : Usage) {
    const ConvertedJob *CJ = CR.findJob(JId);
    R.noteCheck(3);
    if (U.ReadOvh > RB)
      R.addFailure("(a) total ReadOvh of j" + std::to_string(JId) + " is " +
                   std::to_string(U.ReadOvh) + " > RB = " +
                   std::to_string(RB));
    if (U.PollingInstances > 1)
      R.addFailure("(a) j" + std::to_string(JId) + " has " +
                   std::to_string(U.PollingInstances) +
                   " PollingOvh instances (at most one expected)");
    if (CJ && CJ->J.Task < Tasks.size() &&
        U.ExecTime > Tasks.task(CJ->J.Task).Wcet)
      R.addFailure("(a) j" + std::to_string(JId) + " executes for " +
                   std::to_string(U.ExecTime) + " > C_i = " +
                   std::to_string(Tasks.task(CJ->J.Task).Wcet));
    // --- (d) non-preemptive execution: one contiguous run. ---
    R.noteCheck();
    if (U.ExecSegments > 1)
      R.addFailure("(d) j" + std::to_string(JId) + " executes in " +
                   std::to_string(U.ExecSegments) +
                   " separate segments (non-preemptivity violated)");
  }

  // --- (b) consistency with the arrival sequence + (e) uniqueness. ---
  std::set<JobId> SeenIds;
  std::set<MsgId> SeenMsgs;
  for (const ConvertedJob &CJ : CR.Jobs) {
    R.noteCheck(4);
    if (!SeenIds.insert(CJ.J.Id).second)
      R.addFailure("(e) duplicate job id j" + std::to_string(CJ.J.Id));
    if (!SeenMsgs.insert(CJ.J.Msg).second)
      R.addFailure("(b) message m" + std::to_string(CJ.J.Msg) +
                   " scheduled twice");
    std::optional<Arrival> A = Arr.findMsg(CJ.J.Msg);
    if (!A) {
      R.addFailure("(b) scheduled job j" + std::to_string(CJ.J.Id) +
                   " has no arrival in arr");
      continue;
    }
    if (A->Msg.Task != CJ.J.Task)
      R.addFailure("(b) task of j" + std::to_string(CJ.J.Id) +
                   " does not match its arrival");
    if (CJ.ReadAt <= A->At)
      R.addFailure("(b) j" + std::to_string(CJ.J.Id) + " read at t=" +
                   std::to_string(CJ.ReadAt) + ", not after its arrival "
                   "at t=" + std::to_string(A->At));
  }

  // --- (c) policy-compliant selection among read jobs. ---
  for (const ConvertedJob &CJ : CR.Jobs) {
    if (!CJ.SelectedAt)
      continue;
    std::optional<std::uint64_t> Key = selectionKey(CJ, Tasks, Policy);
    if (!Key)
      continue;
    for (const ConvertedJob &Other : CR.Jobs) {
      if (Other.J.Id == CJ.J.Id)
        continue;
      std::optional<std::uint64_t> OtherKey =
          selectionKey(Other, Tasks, Policy);
      if (!OtherKey)
        continue;
      R.noteCheck();
      bool ReadBefore = Other.ReadAt <= *CJ.SelectedAt;
      bool StillPending =
          !Other.DispatchedAt || *Other.DispatchedAt > *CJ.SelectedAt;
      if (ReadBefore && StillPending && *OtherKey < *Key)
        R.addFailure("(c) j" + std::to_string(CJ.J.Id) + " selected at t=" +
                     std::to_string(*CJ.SelectedAt) + " although read job j" +
                     std::to_string(Other.J.Id) + " precedes it under " +
                     toString(Policy) +
                     " (schedule-level functional correctness)");
    }
  }

  // --- (d) per-job event ordering. ---
  for (const ConvertedJob &CJ : CR.Jobs) {
    R.noteCheck();
    Time Prev = CJ.ReadAt;
    bool Ordered = true;
    for (std::optional<Time> T : {CJ.SelectedAt, CJ.DispatchedAt,
                                  CJ.CompletedAt}) {
      if (!T)
        continue;
      if (*T < Prev)
        Ordered = false;
      Prev = *T;
    }
    if (!Ordered)
      R.addFailure("(d) j" + std::to_string(CJ.J.Id) +
                   " has out-of-order read/select/dispatch/complete times");
    if (CJ.CompletedAt && !CJ.DispatchedAt)
      R.addFailure("(d) j" + std::to_string(CJ.J.Id) +
                   " completed without being dispatched");
  }

  return R;
}
