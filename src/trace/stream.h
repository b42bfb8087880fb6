//===- trace/stream.h - The streaming event core (push model) -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The push-based spine of the single-pass pipeline (DESIGN.md §9).
///
/// A TraceSink consumes timestamped marker events as they are emitted;
/// a *trace source* is anything that drives sinks:
///
///  - FdScheduler::run(Limits, Sink)  — the live simulator,
///  - replayTimedTrace(TT, Sink)      — replay of a materialized trace,
///  - readTraceStream(In, Sink, ...)  — chunked files (trace/chunked_io.h).
///
/// TraceFanout tees one source into many sinks, so one pass over one
/// source feeds every checker, the schedule builder and a serializer
/// simultaneously. VectorSink materializes the stream back into a
/// TimedTrace (runAdequacy uses it to fill its report's trace).
///
/// ActionSegmenter is the basic-action parser of Fig. 4: it closes a
/// basic action as soon as the marker *after* it arrives (the §2.2
/// one-marker look-ahead), holding at most one open action.
/// segmentBasicActions collects what it emits.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TRACE_STREAM_H
#define RPROSA_TRACE_STREAM_H

#include "trace/basic_actions.h"
#include "trace/trace.h"

#include "support/check.h"

#include <functional>
#include <vector>

namespace rprosa {

/// Consumer interface of the streaming pipeline. Events must arrive in
/// trace order; onEnd closes the stream (exactly once, after the last
/// marker).
class TraceSink {
public:
  virtual ~TraceSink() = default;

  /// The next marker, stamped with its emission instant.
  virtual void onMarker(const MarkerEvent &E, Time At) = 0;

  /// End of the run at \p EndTime (the t_hrzn of Thm. 5.1).
  virtual void onEnd(Time EndTime) = 0;
};

/// Tees one event stream into several sinks (delivery in add() order).
class TraceFanout final : public TraceSink {
public:
  void add(TraceSink &S) { Sinks.push_back(&S); }

  void onMarker(const MarkerEvent &E, Time At) override {
    for (TraceSink *S : Sinks)
      S->onMarker(E, At);
  }
  void onEnd(Time EndTime) override {
    for (TraceSink *S : Sinks)
      S->onEnd(EndTime);
  }

private:
  std::vector<TraceSink *> Sinks;
};

/// Materializes the stream into a TimedTrace — the batch adapter.
class VectorSink final : public TraceSink {
public:
  void onMarker(const MarkerEvent &E, Time At) override {
    TT.Tr.push_back(E);
    TT.Ts.push_back(At);
  }
  void onEnd(Time EndTime) override {
    TT.EndTime = EndTime;
    Finished = true;
  }

  bool finished() const { return Finished; }
  const TimedTrace &trace() const { return TT; }
  /// Moves the trace out (valid after onEnd).
  TimedTrace take() { return std::move(TT); }

private:
  TimedTrace TT;
  bool Finished = false;
};

/// Replays a materialized trace through a sink (the batch -> streaming
/// bridge). Precondition: one timestamp per marker.
inline void replayTimedTrace(const TimedTrace &TT, TraceSink &Sink) {
  RPROSA_CHECK(TT.Tr.size() == TT.Ts.size(),
               "timed trace must carry one timestamp per marker");
  for (std::size_t I = 0; I < TT.Tr.size(); ++I)
    Sink.onMarker(TT.Tr[I], TT.Ts[I]);
  Sink.onEnd(TT.EndTime);
}

/// Incremental basic-action parser. Feeds each *closed* action to the
/// callback, in order, with the timestamp of the read result marker
/// (M_ReadE) for Read actions (0 otherwise) — the instant §2.4 uses as
/// the job's ReadAt. Holds at most one open action: the bounded
/// look-ahead window of the streaming converter sits on top of this.
class ActionSegmenter {
public:
  /// \p ReadEAt is the M_ReadE timestamp for Read actions, 0 otherwise.
  using ActionFn = std::function<void(const BasicAction &A, Time ReadEAt)>;

  explicit ActionSegmenter(ActionFn Fn) : Emit(std::move(Fn)) {}

  void onMarker(const MarkerEvent &E, Time At) {
    if (Open && AwaitReadE) {
      // The marker after M_ReadS is the read result (§2.2 coalescing;
      // protocol-conformant traces make it an M_ReadE, and any other
      // kind is absorbed the same way).
      A.Socket = E.Socket;
      A.J = E.J;
      ReadEAt = At;
      AwaitReadE = false;
      ++Index;
      return;
    }
    if (Open) {
      if (A.Kind == BasicActionKind::Selection &&
          E.Kind == MarkerKind::Dispatch)
        A.J = E.J; // Selection j resolved by the one-marker look-ahead.
      close(At);
    }
    start(E, At);
    ++Index;
  }

  void onEnd(Time EndTime) {
    if (Open && AwaitReadE)
      AwaitReadE = false; // Trace ends on a bare M_ReadS: a failed read.
    if (Open)
      close(EndTime);
  }

  /// Markers consumed so far.
  std::size_t position() const { return Index; }

private:
  void close(Time End) {
    A.End = End;
    A.EndMarker = Index;
    Emit(A, ReadEAt);
    Open = false;
  }

  /// Opens the next action in place: every field that close() does not
  /// set is written here, so nothing of the previous action survives.
  void start(const MarkerEvent &E, Time At) {
    A.J.reset();
    A.Socket = 0;
    A.FirstMarker = Index;
    A.Start = At;
    ReadEAt = 0;
    switch (E.Kind) {
    case MarkerKind::ReadS:
      A.Kind = BasicActionKind::Read;
      AwaitReadE = true;
      break;
    case MarkerKind::ReadE:
      // Dangling read result (a protocol violation): kept as an Idling
      // action.
      A.Kind = BasicActionKind::Idling;
      break;
    case MarkerKind::Selection:
      A.Kind = BasicActionKind::Selection;
      break;
    case MarkerKind::Dispatch:
      A.Kind = BasicActionKind::Disp;
      A.J = E.J;
      break;
    case MarkerKind::Execution:
      A.Kind = BasicActionKind::Exec;
      A.J = E.J;
      break;
    case MarkerKind::Completion:
      A.Kind = BasicActionKind::Compl;
      A.J = E.J;
      break;
    case MarkerKind::Idling:
      A.Kind = BasicActionKind::Idling;
      break;
    }
    Open = true;
  }

  ActionFn Emit;
  BasicAction A;
  Time ReadEAt = 0;
  std::size_t Index = 0;
  bool Open = false;
  bool AwaitReadE = false;
};

} // namespace rprosa

#endif // RPROSA_TRACE_STREAM_H
