//===- trace/chunked_io.cpp -----------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/chunked_io.h"

#include "support/fields.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

using namespace rprosa;

ChunkedTraceWriter::ChunkedTraceWriter(std::ostream &Out,
                                       std::size_t EventsPerChunk)
    : Out(Out), EventsPerChunk(EventsPerChunk ? EventsPerChunk : 1) {
  Out << "refinedprosa-trace v2\n";
}

void ChunkedTraceWriter::flushChunk() {
  if (Buffered == 0)
    return;
  Out << "chunk " << Buffered << '\n' << Buffer;
  Buffer.clear();
  Buffered = 0;
}

void ChunkedTraceWriter::onMarker(const MarkerEvent &E, Time At) {
  appendMarkerLine(Buffer, At, E);
  ++Buffered;
  ++NumEvents;
  if (Buffered >= EventsPerChunk)
    flushChunk();
}

void ChunkedTraceWriter::onEnd(Time EndTime) {
  flushChunk();
  Out << "end " << EndTime << '\n';
  Out.flush();
  Finished = true;
}

namespace {

/// The job fields `<jobid> <msgid> <task> <readat>`, then `<sock>` when
/// \p WithSocket. Task and socket are 32-bit fields.
std::optional<Job> parseJobFields(FieldCursor &C, bool WithSocket) {
  std::optional<std::uint64_t> Id = C.nextU64();
  std::optional<std::uint64_t> Msg = C.nextU64();
  std::optional<std::uint32_t> Task = C.nextU32();
  std::optional<std::uint64_t> ReadAt = C.nextU64();
  if (!Id || !Msg || !Task || !ReadAt)
    return std::nullopt;
  Job J;
  J.Id = *Id;
  J.Msg = *Msg;
  J.Task = *Task;
  J.ReadAt = *ReadAt;
  if (WithSocket) {
    std::optional<std::uint32_t> Sock = C.nextU32();
    if (!Sock)
      return std::nullopt;
    J.Socket = *Sock;
  }
  return J;
}

/// Parses one `<ts> <marker...>` line (serialize.h) into (\p Ts, \p E);
/// returns why it is malformed (sans line number), or "" if it is not.
std::string parseMarkerLine(std::string_view Line, Time &Ts,
                            MarkerEvent &E) {
  FieldCursor C(Line);
  std::optional<std::uint64_t> Stamp = C.nextU64();
  if (!Stamp)
    return "expected a timestamp";
  Ts = *Stamp;

  std::string_view Kind = C.next();
  if (Kind.empty())
    return "missing marker kind";
  if (Kind == "ReadS") {
    E = MarkerEvent::readS();
  } else if (Kind == "ReadE") {
    std::optional<std::uint32_t> Sock = C.nextU32();
    std::string_view Status = C.next();
    if (!Sock || Status.empty())
      return "malformed ReadE";
    if (Status == "ok") {
      std::optional<Job> J = parseJobFields(C, /*WithSocket=*/false);
      if (!J)
        return "malformed ReadE job fields";
      J->Socket = *Sock;
      E = MarkerEvent::readE(*Sock, *J);
    } else if (Status == "fail") {
      E = MarkerEvent::readE(*Sock, std::nullopt);
    } else {
      return "ReadE status must be ok/fail";
    }
  } else if (Kind == "Selection") {
    E = MarkerEvent::selection();
  } else if (Kind == "Idling") {
    E = MarkerEvent::idling();
  } else if (Kind == "Dispatch" || Kind == "Execution" ||
             Kind == "Completion") {
    std::optional<Job> J = parseJobFields(C, /*WithSocket=*/true);
    if (!J)
      return "malformed " + std::string(Kind) + " job fields";
    if (Kind == "Dispatch")
      E = MarkerEvent::dispatch(*J);
    else if (Kind == "Execution")
      E = MarkerEvent::execution(*J);
    else
      E = MarkerEvent::completion(*J);
  } else {
    return "unknown marker kind '" + std::string(Kind) + "'";
  }
  if (std::string_view Extra = C.next(); !Extra.empty())
    return "unexpected '" + std::string(Extra) + "' after the " +
           std::string(Kind) + " marker";
  return "";
}

struct Reader {
  Reader(std::istream &In, TraceSink &Sink, CheckResult *Diags,
         TraceStreamStats *Stats)
      : In(In), Sink(Sink), Diags(Diags), Stats(Stats) {}

  std::istream &In;
  TraceSink &Sink;
  CheckResult *Diags;
  TraceStreamStats *Stats;
  std::size_t LineNo = 0;
  std::string Line;
  /// Parsed-but-undelivered events of the chunk in flight: delivery
  /// happens only once the whole chunk parsed (no partial chunks).
  std::vector<std::pair<MarkerEvent, Time>> Chunk;

  bool fail(const std::string &Why) {
    if (Diags)
      Diags->addFailure("trace parse error at line " +
                        std::to_string(LineNo) + ": " + Why);
    return false;
  }

  /// Next line verbatim; false at end of stream.
  bool nextLineRaw() {
    if (!std::getline(In, Line))
      return false;
    ++LineNo;
    return true;
  }

  /// Next line with a field; false at end of stream. Only valid
  /// *between* records: inside a chunk body every line is an event, so
  /// blank lines must be diagnosed, not skipped (nextLineRaw).
  bool nextLine() {
    while (nextLineRaw())
      if (!FieldCursor(Line).next().empty())
        return true;
    return false;
  }

  void deliver(const MarkerEvent &E, Time Ts) {
    Sink.onMarker(E, Ts);
    if (Stats)
      ++Stats->Events;
  }

  /// The rest of an `end <EndTime>` line, then nothing but blank lines.
  bool finish(FieldCursor &C) {
    std::optional<std::uint64_t> End = C.nextU64();
    if (!End)
      return fail("malformed end time");
    if (std::string_view Extra = C.next(); !Extra.empty())
      return fail("unexpected '" + std::string(Extra) +
                  "' after the end time");
    if (nextLine())
      return fail("content after the end line");
    if (Stats)
      Stats->SawEnd = true;
    Sink.onEnd(*End);
    return true;
  }

  /// The rest of a `chunk <n>` line and its n event lines.
  bool readChunk(FieldCursor &C) {
    std::optional<std::uint64_t> Count = C.nextU64();
    if (!Count)
      return fail("malformed chunk header");
    if (std::string_view Extra = C.next(); !Extra.empty())
      return fail("unexpected '" + std::string(Extra) +
                  "' after the chunk size");
    if (*Count == 0)
      return fail("chunk header announces zero events (the writer "
                  "never emits empty chunks; torn or corrupted "
                  "header?)");

    Chunk.clear();
    Chunk.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(*Count, 1 << 20)));
    for (std::uint64_t I = 0; I < *Count; ++I) {
      // Chunk bodies are read verbatim: a blank line here is a torn
      // write blanking an event, and silently skipping it would
      // misattribute the damage to the next line's parse.
      if (!nextLineRaw())
        return fail("truncated chunk (expected " + std::to_string(*Count) +
                    " events, got " + std::to_string(I) + ")");
      if (FieldCursor(Line).next().empty())
        return fail("blank line inside a chunk body (event " +
                    std::to_string(I + 1) + " of " +
                    std::to_string(*Count) + "; torn write?)");
      auto &[E, Ts] = Chunk.emplace_back();
      if (std::string Why = parseMarkerLine(Line, Ts, E); !Why.empty())
        return fail(Why);
    }
    for (const auto &[E, Ts] : Chunk)
      deliver(E, Ts);
    if (Stats)
      ++Stats->Chunks;
    return true;
  }

  bool run(bool V2) {
    while (nextLine()) {
      FieldCursor C(Line);
      std::string_view First = C.next();
      if (First == "end")
        return finish(C);
      if (V2) {
        if (First != "chunk")
          return fail("expected a chunk or end line, got '" +
                      std::string(First) + "'");
        if (!readChunk(C))
          return false;
        continue;
      }
      Time Ts = 0;
      MarkerEvent E;
      if (std::string Why = parseMarkerLine(Line, Ts, E); !Why.empty())
        return fail(Why);
      deliver(E, Ts);
    }
    return fail("missing end line");
  }
};

} // namespace

bool rprosa::readTraceStream(std::istream &In, TraceSink &Sink,
                             CheckResult *Diags, TraceStreamStats *Stats) {
  Reader R(In, Sink, Diags, Stats);
  bool HaveHeader = R.nextLineRaw();
  R.LineNo = 1;
  // Matched field by field: `refinedprosa-trace v1` or `... v2`.
  FieldCursor C(R.Line);
  bool IsTrace = HaveHeader && C.next() == "refinedprosa-trace";
  std::string_view Version = C.next();
  if (IsTrace && C.next().empty() && (Version == "v1" || Version == "v2"))
    return R.run(Version == "v2");
  return R.fail("missing or unknown header");
}

void rprosa::writeTraceStream(std::ostream &Out, const TimedTrace &TT,
                              std::size_t EventsPerChunk) {
  ChunkedTraceWriter W(Out, EventsPerChunk);
  replayTimedTrace(TT, W);
}

std::optional<TimedTrace> rprosa::readTimedTrace(std::istream &In,
                                                 CheckResult *Diags) {
  VectorSink V;
  if (!readTraceStream(In, V, Diags))
    return std::nullopt;
  return V.take();
}
