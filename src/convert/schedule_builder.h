//===- convert/schedule_builder.h - Incremental §2.4 conversion -----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace→schedule conversion (§2.4), incremental. ScheduleBuilder
/// is the library's one implementation of the finite look-ahead parser;
/// convertTraceToSchedule (trace_to_schedule.h) replays a materialized
/// trace into it. It attributes overheads with a bounded look-ahead
/// window:
///
///  - a completed polling round is held until the next action shows
///    whether another round follows (flush as ReadOvh chunks) or the
///    phase ends (the final all-failed round, → PollingOvh or Idle);
///  - a selection is held until the action after it resolves
///    Selection j (next is Disp j) vs Selection ⊥ (next is Idling);
///
/// so the window never holds more than NumSockets read actions plus the
/// held selection plus the segmenter's one open action — independent of
/// the horizon. Diagnostics are emitted in trace order, as the structure
/// they describe closes: in a truncated multi-round polling phase,
/// "polling round without a successful read" precedes "truncated
/// round". tests/stream_equivalence_test.cpp and
/// tests/convert_reference_test.cpp compare the output with the
/// whole-trace reference converter kept under tests/.
///
/// Downstream, a ScheduleEventConsumer receives the coalesced
/// (interval, ProcessorState) segments plus the job life cycle:
/// admitted (first appearance, after ReadAt is known), selected,
/// dispatched, retired (M_Completion — per-job state can be dropped),
/// and the leftover open jobs at end of stream. ScheduleCapture
/// materializes these events back into a ConversionResult.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CONVERT_SCHEDULE_BUILDER_H
#define RPROSA_CONVERT_SCHEDULE_BUILDER_H

#include "convert/trace_to_schedule.h"
#include "core/job_table.h"
#include "trace/stream.h"

#include <optional>
#include <utility>
#include <vector>

namespace rprosa {

/// Consumer of the incremental conversion's output events.
class ScheduleEventConsumer {
public:
  virtual ~ScheduleEventConsumer() = default;

  /// The schedule's start instant (first action's start); fired once,
  /// before any segment, unless the trace is empty.
  virtual void onScheduleStart(Time At) { (void)At; }

  /// One coalesced segment (maximal run of one processor state), in
  /// schedule order, contiguous.
  virtual void onSegment(const ScheduleSegment &Seg) { (void)Seg; }

  /// First appearance of a job in the conversion's job table. \p Index
  /// is its table position (admission order is table order).
  virtual void onJobAdmitted(const ConvertedJob &CJ, std::size_t Index) {
    (void)CJ;
    (void)Index;
  }
  /// SelectedAt was just recorded for \p CJ.
  virtual void onJobSelected(const ConvertedJob &CJ, std::size_t Index) {
    (void)CJ;
    (void)Index;
  }
  /// DispatchedAt was just recorded for \p CJ.
  virtual void onJobDispatched(const ConvertedJob &CJ, std::size_t Index) {
    (void)CJ;
    (void)Index;
  }
  /// CompletedAt was just recorded; the builder drops the job's state
  /// after this call (the final snapshot is \p CJ).
  virtual void onJobRetired(const ConvertedJob &CJ, std::size_t Index) {
    (void)CJ;
    (void)Index;
  }
  /// End of stream. \p Open are the never-completed jobs still live at
  /// the horizon, as (table index, final snapshot), in table order.
  virtual void
  onScheduleEnd(const std::vector<std::pair<std::size_t, ConvertedJob>> &Open) {
    (void)Open;
  }
};

/// Tees conversion events into several consumers (delivery in add order).
class ScheduleEventFanout final : public ScheduleEventConsumer {
public:
  void add(ScheduleEventConsumer &C) { Out.push_back(&C); }

  void onScheduleStart(Time At) override {
    for (auto *C : Out)
      C->onScheduleStart(At);
  }
  void onSegment(const ScheduleSegment &Seg) override {
    for (auto *C : Out)
      C->onSegment(Seg);
  }
  void onJobAdmitted(const ConvertedJob &CJ, std::size_t Index) override {
    for (auto *C : Out)
      C->onJobAdmitted(CJ, Index);
  }
  void onJobSelected(const ConvertedJob &CJ, std::size_t Index) override {
    for (auto *C : Out)
      C->onJobSelected(CJ, Index);
  }
  void onJobDispatched(const ConvertedJob &CJ, std::size_t Index) override {
    for (auto *C : Out)
      C->onJobDispatched(CJ, Index);
  }
  void onJobRetired(const ConvertedJob &CJ, std::size_t Index) override {
    for (auto *C : Out)
      C->onJobRetired(CJ, Index);
  }
  void onScheduleEnd(
      const std::vector<std::pair<std::size_t, ConvertedJob>> &Open) override {
    for (auto *C : Out)
      C->onScheduleEnd(Open);
  }

private:
  std::vector<ScheduleEventConsumer *> Out;
};

/// The incremental converter sink. Feed markers in timestamp order
/// (RPROSA_CHECK-enforced); call onEnd exactly once. A job id that
/// reappears after that job's M_Completion is admitted as a new table
/// entry.
///
/// Besides its TraceSink face the builder has an action-level one, for
/// a caller that already segments the markers (the adequacy pipeline,
/// whose one ActionSegmenter also feeds WcetCheckSink): per marker,
/// checkMarkerTime before segmenting it; per closed action, onAction;
/// at the end, checkEndTime, the segmenter's onEnd, then finish.
class ScheduleBuilder final : public TraceSink {
public:
  ScheduleBuilder(std::uint32_t NumSockets, ScheduleEventConsumer &Out,
                  CheckResult *Diags = nullptr);

  void onMarker(const MarkerEvent &E, Time At) override {
    checkMarkerTime(At);
    Seg.onMarker(E, At);
  }
  void onEnd(Time EndTime) override {
    checkEndTime(EndTime);
    Seg.onEnd(EndTime);
    finish();
  }

  /// The timestamp-order precondition for a marker at \p At.
  void checkMarkerTime(Time At) {
    RPROSA_CHECK(!HaveTs || LastTs <= At,
                 "markers must be delivered in timestamp order");
    LastTs = At;
    HaveTs = true;
  }
  /// The precondition that \p EndTime does not precede the last marker.
  void checkEndTime(Time EndTime) const {
    RPROSA_CHECK(!HaveTs || LastTs <= EndTime,
                 "EndTime must not precede the last marker");
  }
  /// One closed action, as an ActionSegmenter hands it out.
  void onAction(const BasicAction &A, Time ReadEAt);
  /// Closes the structure still open once the last action is in, and
  /// reports the open jobs.
  void finish();

  /// Jobs admitted but not yet retired — the builder's live table size.
  std::size_t openJobs() const { return Recs.size(); }
  /// Jobs admitted over the whole run.
  std::size_t admittedJobs() const { return NumAdmitted; }
  /// Actions currently buffered (reads of the open polling round plus
  /// the held selection); bounded by NumSockets + 1.
  std::size_t windowActions() const {
    return Window.size() + (HeldSel ? 1 : 0);
  }

private:
  /// What the conversion needs of one buffered Read action: its job
  /// (⊥ for a failed read), its length and its M_ReadE timestamp (§2.4
  /// ReadAt).
  struct RAct {
    std::optional<Job> J;
    Duration Len = 0;
    Time ReadEAt = 0;
  };
  /// A live job-table record.
  struct Rec {
    ConvertedJob CJ;
    std::size_t Index = 0;
  };
  enum class PhaseState : std::uint8_t {
    Top,          ///< No polling phase open.
    InPhase,      ///< Collecting reads of a polling phase.
    AwaitAfterSel ///< Selection held; waiting for the action after it.
  };

  void diag(std::string Message);
  void topLevel(const BasicAction &A);
  void pushRead(const BasicAction &A, Time ReadEAt);
  void attributeRound(const std::vector<RAct> &Round);
  void holdFinalRound();
  void endPhaseNoSelection(bool AtEnd);
  void afterSelection(const BasicAction &A, Time ReadEAt);

  /// Looks up or creates the job-table record; \p IsNew reports whether
  /// an admission event must follow once the caller filled the fields.
  Rec &jobEntry(const Job &J, bool &IsNew);

  void emit(ProcState S, Duration Len);
  void flushSeg();

  std::uint32_t NumSockets;
  ScheduleEventConsumer &Out;
  CheckResult *Diags;
  ActionSegmenter<ActionsTo<ScheduleBuilder>> Seg;

  // Conversion state machine.
  PhaseState Phase = PhaseState::Top;
  std::vector<RAct> Window;
  std::size_t PhaseReads = 0;
  std::optional<BasicAction> HeldSel;
  Duration FinalRoundLen = 0;

  // Segment emission (run-length coalescing, mirroring Schedule::append).
  bool Started = false;
  Time Cursor = 0;
  bool SegOpen = false;
  ScheduleSegment PendingSeg;

  // Live job table; retired records are erased (O(open jobs)).
  JobTable<JobId, Rec> Recs;
  std::size_t NumAdmitted = 0;

  // Timestamp-order precondition tracking.
  Time LastTs = 0;
  bool HaveTs = false;
};

/// Materializes the event stream back into a ConversionResult — the
/// capture sink behind convertTraceToSchedule and runAdequacy.
class ScheduleCapture final : public ScheduleEventConsumer {
public:
  void onScheduleStart(Time At) override { Res.Sched = Schedule(At); }
  void onSegment(const ScheduleSegment &Seg) override {
    Res.Sched.append(Seg.State, Seg.Len);
  }
  void onJobAdmitted(const ConvertedJob &CJ, std::size_t Index) override {
    RPROSA_CHECK(Index == Res.Jobs.size(),
                 "admissions must arrive in table order");
    Res.Jobs.push_back(CJ);
  }
  void onJobSelected(const ConvertedJob &CJ, std::size_t Index) override {
    Res.Jobs[Index] = CJ;
  }
  void onJobDispatched(const ConvertedJob &CJ, std::size_t Index) override {
    Res.Jobs[Index] = CJ;
  }
  void onJobRetired(const ConvertedJob &CJ, std::size_t Index) override {
    Res.Jobs[Index] = CJ;
  }
  void onScheduleEnd(
      const std::vector<std::pair<std::size_t, ConvertedJob>> &Open) override {
    for (const auto &[Index, CJ] : Open)
      Res.Jobs[Index] = CJ;
  }

  const ConversionResult &result() const { return Res; }
  ConversionResult take() { return std::move(Res); }

private:
  ConversionResult Res;
};

/// Streaming Schedule::validateStructure: checks contiguity, positive
/// length, and coalescing per arriving segment. Same failure messages
/// and check counts as validateStructure on the captured schedule.
class ScheduleStructureSink final : public ScheduleEventConsumer {
public:
  void onScheduleStart(Time At) override { Cursor = At; }
  void onSegment(const ScheduleSegment &Seg) override {
    R.noteCheck(3);
    if (Seg.Start != Cursor)
      R.addFailure("schedule gap before segment " + std::to_string(Index));
    if (Seg.Len == 0)
      R.addFailure("zero-length segment " + std::to_string(Index));
    if (Index > 0 && Prev == Seg.State)
      R.addFailure("uncoalesced equal segments at " + std::to_string(Index));
    Prev = Seg.State;
    Cursor = Seg.end();
    ++Index;
  }

  const CheckResult &result() const { return R; }
  CheckResult take() { return std::move(R); }

private:
  CheckResult R;
  Time Cursor = 0;
  ProcState Prev;
  std::size_t Index = 0;
};

} // namespace rprosa

#endif // RPROSA_CONVERT_SCHEDULE_BUILDER_H
