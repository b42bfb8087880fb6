//===- convert/schedule_builder.cpp ---------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
// The library's one implementation of the §2.4 conversion.
// tests/reference_batch.cpp keeps an independent whole-trace converter
// with the same attribution rules and diagnostic strings; the
// equivalence and differential suites compare the two.
//===----------------------------------------------------------------------===//

#include "convert/schedule_builder.h"

#include "trace/basic_actions.h"

#include <algorithm>
#include <string>
#include <utility>

using namespace rprosa;

ScheduleBuilder::ScheduleBuilder(std::uint32_t NumSockets,
                                 ScheduleEventConsumer &Out,
                                 CheckResult *Diags)
    : NumSockets(NumSockets), Out(Out), Diags(Diags),
      Seg(ActionsTo<ScheduleBuilder>{this}) {
  RPROSA_CHECK(NumSockets > 0, "need at least one socket");
}

void ScheduleBuilder::finish() {
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
  Recs.forEach([&](auto H) { Open.emplace_back(Recs[H].Index, Recs[H].CJ); });
  std::sort(Open.begin(), Open.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  Out.onScheduleEnd(Open);
}

void ScheduleBuilder::diag(std::string Message) {
  if (Diags)
    Diags->addFailure(std::move(Message));
}

ScheduleBuilder::Rec &ScheduleBuilder::jobEntry(const Job &J, bool &IsNew) {
  auto [H, New] = Recs.insert(J.Id);
  IsNew = New;
  Rec &R = Recs[H];
  if (New) {
    R.CJ.J = J;
    R.Index = NumAdmitted++;
  }
  return R;
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

void ScheduleBuilder::onAction(const BasicAction &A, Time ReadEAt) {
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
  onAction(A, ReadEAt);
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
      // builder's state O(open jobs) over arbitrarily long runs, and its
      // slot serves the next admission.
      ConvertedJob Done = R.CJ;
      std::size_t Index = R.Index;
      Recs.erase(Recs.find(A.J->Id));
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
