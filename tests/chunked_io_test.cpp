//===- tests/chunked_io_test.cpp - Chunked trace format (v2) --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The v2 chunked on-disk format: round trips at every chunk size, the
/// v1 fallback, replay statistics, and — the crash-consistency story —
/// the error paths: a truncated or torn final chunk must produce a
/// clean diagnostic and deliver NOTHING from the offending chunk,
/// never a partial chunk and never an onEnd. The reader's blocks: short
/// reads, lines longer than a block and lines ending on its boundary.
///
//===----------------------------------------------------------------------===//

#include "sim/workload.h"
#include "trace/chunked_io.h"
#include "trace/serialize.h"
#include "trace/stream.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

TimedTrace simTrace() {
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 4000;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  return runRossl(C, Arr, 8000);
}

std::string writeV2(const TimedTrace &TT, std::size_t EventsPerChunk) {
  std::ostringstream Out;
  writeTraceStream(Out, TT, EventsPerChunk);
  return Out.str();
}

/// A small handcrafted v2 file whose exact lines the error-path tests
/// can cut and corrupt. Sockets/jobs don't matter at the IO layer; the
/// protocol checkers live upstream of it.
const char *WellFormedV2 = "refinedprosa-trace v2\n"
                           "chunk 3\n"
                           "0 ReadS\n"
                           "2 ReadE 0 fail\n"
                           "5 Selection\n"
                           "chunk 2\n"
                           "8 Idling\n"
                           "9 ReadS\n"
                           "end 12\n";

/// Runs \p Text through readTraceStream into a VectorSink, expecting
/// failure; returns the sink + diagnostics + stats for inspection.
struct FailedRead {
  VectorSink V;
  CheckResult Diags;
  TraceStreamStats Stats;
};

/// What a read shows the outside: the events, the end and the stats.
std::string readAll(std::istream &In) {
  VectorSink V;
  TraceStreamStats Stats;
  CheckResult Diags;
  bool Ok = readTraceStream(In, V, &Diags, &Stats);
  return std::string(Ok ? "accept\n" : "reject\n") +
         serializeTimedTrace(V.trace()) + "events " +
         std::to_string(Stats.Events) + " chunks " +
         std::to_string(Stats.Chunks) + " end " +
         std::to_string(V.finished() ? V.trace().EndTime : 0) + "\n" +
         Diags.describe();
}

std::string readAll(const std::string &Text) {
  std::istringstream In(Text);
  return readAll(In);
}

FailedRead expectMalformed(const std::string &Text) {
  FailedRead R;
  std::istringstream In(Text);
  EXPECT_FALSE(readTraceStream(In, R.V, &R.Diags, &R.Stats)) << Text;
  EXPECT_FALSE(R.V.finished()) << "onEnd must not fire on malformed input";
  EXPECT_FALSE(R.Stats.SawEnd);
  EXPECT_FALSE(R.Diags.passed());
  return R;
}

} // namespace

TEST(ChunkedRoundTrip, SimulatedTraceSurvivesEveryChunkSize) {
  TimedTrace TT = simTrace();
  ASSERT_GT(TT.size(), 50u);
  const std::string Want = serializeTimedTrace(TT);
  for (std::size_t Epc : {std::size_t(1), std::size_t(3), std::size_t(64),
                          std::size_t(100000)}) {
    std::istringstream In(writeV2(TT, Epc));
    std::optional<TimedTrace> Got = readTimedTrace(In);
    ASSERT_TRUE(Got.has_value()) << "chunk size " << Epc;
    EXPECT_EQ(serializeTimedTrace(*Got), Want) << "chunk size " << Epc;
    EXPECT_EQ(Got->EndTime, TT.EndTime);
  }
}

TEST(ChunkedRoundTrip, StatsReportEventsChunksAndEnd) {
  TimedTrace TT = simTrace();
  const std::size_t N = TT.size();
  std::istringstream In(writeV2(TT, 7));
  VectorSink V;
  TraceStreamStats Stats;
  ASSERT_TRUE(readTraceStream(In, V, nullptr, &Stats));
  EXPECT_EQ(Stats.Events, N);
  EXPECT_EQ(Stats.Chunks, (N + 6) / 7);
  EXPECT_TRUE(Stats.SawEnd);
  EXPECT_TRUE(V.finished());
}

TEST(ChunkedRoundTrip, WriterCountsAndFinishes) {
  TimedTrace TT = simTrace();
  std::ostringstream Out;
  ChunkedTraceWriter W(Out, 16);
  EXPECT_EQ(W.written(), 0u);
  EXPECT_FALSE(W.finished());
  replayTimedTrace(TT, W);
  EXPECT_EQ(W.written(), TT.size());
  EXPECT_TRUE(W.finished());
}

TEST(ChunkedRoundTrip, V1TextStreamsThroughTheSameSink) {
  TimedTrace TT = simTrace();
  std::istringstream In(serializeTimedTrace(TT));
  VectorSink V;
  TraceStreamStats Stats;
  ASSERT_TRUE(readTraceStream(In, V, nullptr, &Stats));
  EXPECT_EQ(Stats.Events, TT.size());
  EXPECT_EQ(Stats.Chunks, 0u) << "v1 files have no chunks";
  EXPECT_TRUE(Stats.SawEnd);
  EXPECT_EQ(serializeTimedTrace(V.take()), serializeTimedTrace(TT));
}

TEST(ChunkedRoundTrip, EmptyTraceRoundTrips) {
  TimedTrace TT;
  TT.EndTime = 77;
  std::istringstream In(writeV2(TT, 4096));
  std::optional<TimedTrace> Got = readTimedTrace(In);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(Got->size(), 0u);
  EXPECT_EQ(Got->EndTime, 77u);
}

TEST(ChunkedErrorPath, TruncatedFinalChunkDeliversNothingFromIt) {
  // Cut the file mid-chunk: header promises 2 events, only 1 present,
  // no end line (the torn-write shape of a crashed producer).
  std::string Text(WellFormedV2);
  Text = Text.substr(0, Text.find("9 ReadS"));
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("truncated chunk (expected 2 events, "
                                    "got 1)"),
            std::string::npos)
      << R.Diags.describe();
  // Only the complete first chunk reached the sink.
  EXPECT_EQ(R.V.trace().size(), 3u);
  EXPECT_EQ(R.Stats.Events, 3u);
  EXPECT_EQ(R.Stats.Chunks, 1u);
}

TEST(ChunkedErrorPath, TornLastLineDeliversNothingFromItsChunk) {
  // The final line is torn mid-token — the whole chunk is withheld,
  // including its first (well-formed) event.
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("9 ReadS");
  Text = Text.substr(0, At) + "9 Rea";
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("trace parse error"), std::string::npos);
  EXPECT_EQ(R.V.trace().size(), 3u)
      << "the torn chunk's leading events must be withheld";
  EXPECT_EQ(R.Stats.Chunks, 1u);
}

TEST(ChunkedErrorPath, MissingEndLineFailsAfterFullDelivery) {
  std::string Text(WellFormedV2);
  Text = Text.substr(0, Text.find("end 12"));
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("missing end line"), std::string::npos);
  // Both chunks were complete, so both were delivered before the miss.
  EXPECT_EQ(R.V.trace().size(), 5u);
  EXPECT_EQ(R.Stats.Chunks, 2u);
}

TEST(ChunkedErrorPath, ContentAfterTheEndLineIsRejected) {
  std::string Text(WellFormedV2);
  Text += "chunk 1\n0 Idling\n";
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("content after the end line"),
            std::string::npos);
}

TEST(ChunkedErrorPath, UnknownHeaderIsRejected) {
  FailedRead R = expectMalformed("refinedprosa-trace v3\nend 0\n");
  EXPECT_NE(R.Diags.describe().find("missing or unknown header"),
            std::string::npos);
  expectMalformed("");
}

TEST(ChunkedErrorPath, MalformedChunkHeaderIsRejected) {
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("chunk 2");
  Text = Text.substr(0, At) + "chunk x\n" + Text.substr(At + 8);
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("malformed chunk header"),
            std::string::npos);
  EXPECT_EQ(R.V.trace().size(), 3u);
}

TEST(ChunkedErrorPath, MalformedEndTimeIsRejected) {
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("end 12");
  Text = Text.substr(0, At) + "end soon\n";
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("malformed end time"),
            std::string::npos);
}

TEST(ChunkedErrorPath, OverflowTimestampIsADiagnosticNotACrash) {
  // 21 digits does not fit in 64 bits; the parser must diagnose, not
  // crash, and must withhold the chunk it appears in.
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("8 Idling");
  Text = Text.substr(0, At) + "99999999999999999999999 Idling\n" +
         Text.substr(At + 9);
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("trace parse error"), std::string::npos);
  EXPECT_EQ(R.V.trace().size(), 3u);
}

TEST(ChunkedErrorPath, BlankLineInsideAChunkBodyIsDiagnosedInPlace) {
  // A torn write that blanked an event line: skipping it silently would
  // shift every later event by one and misattribute the damage. The
  // diagnostic must name the blank itself, with its line number.
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("2 ReadE 0 fail\n");
  Text = Text.substr(0, At) + "\n" + Text.substr(At + 15);
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find(
                "blank line inside a chunk body (event 2 of 3"),
            std::string::npos)
      << R.Diags.describe();
  // The blank replaced line 4 of the file; the diagnostic points at it.
  EXPECT_NE(R.Diags.describe().find("at line 4"), std::string::npos)
      << R.Diags.describe();
  EXPECT_EQ(R.V.trace().size(), 0u)
      << "the damaged chunk must deliver nothing";
  // Whitespace-only counts as blank too (same torn-write shape).
  std::string WsText(WellFormedV2);
  At = WsText.find("9 ReadS\n");
  WsText = WsText.substr(0, At) + " \t\n" + WsText.substr(At + 8);
  FailedRead R2 = expectMalformed(WsText);
  EXPECT_NE(R2.Diags.describe().find("blank line inside a chunk body"),
            std::string::npos)
      << R2.Diags.describe();
  EXPECT_EQ(R2.V.trace().size(), 3u);
}

TEST(ChunkedErrorPath, ZeroEventChunkHeaderIsRejected) {
  // The writer never emits empty chunks (flushChunk returns on
  // Buffered == 0), so "chunk 0" can only be corruption. Accepting it
  // would loop the reader on a no-progress chunk.
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("chunk 2");
  Text = Text.substr(0, At) + "chunk 0\n" + Text.substr(At + 8);
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("announces zero events"),
            std::string::npos)
      << R.Diags.describe();
  EXPECT_EQ(R.V.trace().size(), 3u)
      << "everything before the corrupt header was complete";
  EXPECT_EQ(R.Stats.Chunks, 1u);
}

TEST(ChunkedErrorPath, ReadTimedTraceReturnsNulloptOnMalformedInput) {
  std::string Text(WellFormedV2);
  Text = Text.substr(0, Text.find("9 ReadS"));
  std::istringstream In(Text);
  CheckResult Diags;
  EXPECT_FALSE(readTimedTrace(In, &Diags).has_value());
  EXPECT_FALSE(Diags.passed());
}

// The named divergences of the text grammar (DESIGN.md §9), as they
// touch the v2 format.

TEST(ChunkedGrammar, CrlfReadsLikeLf) {
  // CR separates fields, on chunk and end lines too.
  std::string Crlf;
  for (char C : std::string(WellFormedV2))
    Crlf += C == '\n' ? std::string("\r\n") : std::string(1, C);
  std::istringstream Lf(WellFormedV2), In(Crlf);
  std::optional<TimedTrace> Want = readTimedTrace(Lf);
  std::optional<TimedTrace> Got = readTimedTrace(In);
  ASSERT_TRUE(Want.has_value());
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(serializeTimedTrace(*Got), serializeTimedTrace(*Want));
}

TEST(ChunkedGrammar, HeaderIsMatchedFieldByField) {
  std::string Text(WellFormedV2);
  std::istringstream In(" refinedprosa-trace\tv2 " +
                        Text.substr(Text.find('\n')));
  EXPECT_TRUE(readTimedTrace(In).has_value());
  FailedRead R = expectMalformed("refinedprosa-trace v2 x" +
                                 Text.substr(Text.find('\n')));
  EXPECT_NE(R.Diags.describe().find("line 1: missing or unknown header"),
            std::string::npos);
}

TEST(ChunkedGrammar, VerticalTabDoesNotSeparate) {
  // Only space, tab and CR separate fields.
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("8 Idling");
  Text[At + 1] = '\v';
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("line 7: expected a timestamp"),
            std::string::npos)
      << R.Diags.describe();
  EXPECT_EQ(R.V.trace().size(), 3u);
}

TEST(ChunkedGrammar, FieldAfterTheLastOneIsAnError) {
  // Extra fields on a chunk or marker line are damage, not padding.
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("chunk 2");
  FailedRead R = expectMalformed(Text.substr(0, At) + "chunk 2 x" +
                                 Text.substr(At + 7));
  EXPECT_NE(R.Diags.describe().find(
                "line 6: unexpected 'x' after the chunk size"),
            std::string::npos)
      << R.Diags.describe();
  EXPECT_EQ(R.V.trace().size(), 3u);

  At = Text.find("8 Idling");
  FailedRead R2 = expectMalformed(Text.substr(0, At) + "8 Idling 9 ReadS" +
                                  Text.substr(At + 8));
  EXPECT_NE(R2.Diags.describe().find(
                "line 7: unexpected '9' after the Idling marker"),
            std::string::npos)
      << R2.Diags.describe();
  EXPECT_EQ(R2.V.trace().size(), 3u);
}

TEST(ChunkedGrammar, ThirtyTwoBitFieldsRejectWideValues) {
  // A wide socket id must not wrap to a valid one.
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("2 ReadE 0 fail");
  FailedRead R = expectMalformed(Text.substr(0, At) +
                                 "2 ReadE 4294967296 fail" +
                                 Text.substr(At + 14));
  EXPECT_NE(R.Diags.describe().find("line 4: malformed ReadE"),
            std::string::npos)
      << R.Diags.describe();
  EXPECT_EQ(R.V.trace().size(), 0u);
}

TEST(ChunkedErrorPath, FailedStreamHasNoHeader) {
  std::istringstream In(WellFormedV2);
  In.setstate(std::ios::failbit);
  VectorSink V;
  CheckResult Diags;
  TraceStreamStats Stats;
  EXPECT_FALSE(readTraceStream(In, V, &Diags, &Stats));
  EXPECT_NE(Diags.describe().find("line 1: missing or unknown header"),
            std::string::npos)
      << Diags.describe();
  EXPECT_EQ(V.trace().size(), 0u);
  EXPECT_FALSE(Stats.SawEnd);
}

// The reader takes its stream in blocks of TraceReadBlockBytes.

TEST(ChunkedBlocks, MegabyteTraceReadsAlikeThroughShortReads) {
  // A simulator-written trace spanning many blocks, from a stream that
  // returns 1-7 bytes per call.
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 150000;
  TimedTrace TT = runRossl(C, generateWorkload(C.Tasks, Spec), 300000);
  std::string Text = writeV2(TT, 4096);
  ASSERT_GT(Text.size(), std::size_t(1) << 20);

  std::istringstream Whole(Text);
  std::optional<TimedTrace> Want = readTimedTrace(Whole);
  ASSERT_TRUE(Want.has_value());
  EXPECT_EQ(serializeTimedTrace(*Want), serializeTimedTrace(TT));
  ShortReadBuf Buf(Text, fuzzSeed(2026));
  std::istream In(&Buf);
  std::optional<TimedTrace> Got = readTimedTrace(In);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(serializeTimedTrace(*Got), serializeTimedTrace(*Want));
  EXPECT_EQ(Got->EndTime, Want->EndTime);
}

TEST(ChunkedBlocks, LineLongerThanABlockGrowsTheBuffer) {
  const std::string Plain = "refinedprosa-trace v2\n"
                            "chunk 2\n"
                            "0 Idling\n"
                            "5 ReadS\n"
                            "end 9\n";
  std::string Long = Plain;
  Long.insert(Long.find("5 ReadS"), std::string(200000, ' '));
  ASSERT_GT(Long.size(), 3 * TraceReadBlockBytes);
  EXPECT_EQ(readAll(Long), readAll(Plain));
  ShortReadBuf Buf(Long, fuzzSeed(2026));
  std::istream In(&Buf);
  EXPECT_EQ(readAll(In), readAll(Plain));

  // A damaged long line is diagnosed at its own line number.
  std::string Bad = Long;
  Bad.replace(Bad.find("5 ReadS"), 7, "5 Reads");
  EXPECT_NE(readAll(Bad).find("line 4: unknown marker kind 'Reads'"),
            std::string::npos);
}

TEST(ChunkedBlocks, LinesEndingAtABlockBoundaryReadLikeTheirLfTwins) {
  // Padding with leading blanks moves a line's end onto, just before
  // and just after the end of the first block.
  auto Trace = [](std::size_t Pad, const char *Eol) {
    return "refinedprosa-trace v2" + std::string(Eol) + "chunk 2" + Eol +
           std::string(Pad, ' ') + "0 ReadS" + Eol + "9 Idling" + Eol +
           "end 12" + Eol;
  };
  const std::string Lf = readAll(Trace(0, "\n"));
  ASSERT_EQ(Lf.rfind("accept", 0), 0u) << Lf;
  // The CRLF line "<pad>0 ReadS\r\n" ends LineEnd bytes into the
  // unpadded trace; Shift 0 splits its CR from its LF across the
  // boundary, Shift 1 ends it on the boundary.
  const std::string_view Line = "0 ReadS\r\n";
  const std::size_t LineEnd = Trace(0, "\r\n").find(Line) + Line.size();
  for (std::size_t Shift : {0, 1, 2, 3}) {
    std::size_t Pad = TraceReadBlockBytes + 1 - Shift - LineEnd;
    std::string Crlf = Trace(Pad, "\r\n");
    ASSERT_EQ(Crlf.find(Line) + Line.size(), TraceReadBlockBytes + 1 - Shift);
    EXPECT_EQ(readAll(Crlf), Lf) << "shift " << Shift;
    EXPECT_EQ(readAll(Trace(Pad, "\n")), Lf) << "shift " << Shift;
  }

  // A last line without its '\n' that ends at a block boundary, once
  // and twice into the stream, bare or with its CR.
  for (std::size_t Blocks : {1, 2}) {
    for (const char *Cr : {"", "\r"}) {
      std::string Text = Trace(0, "\n");
      Text.pop_back();
      Text += Cr;
      std::size_t Pad = Blocks * TraceReadBlockBytes - Text.size();
      Text.insert(Text.find("0 ReadS"), std::string(Pad, ' '));
      ASSERT_EQ(Text.size(), Blocks * TraceReadBlockBytes);
      EXPECT_EQ(readAll(Text), Lf) << Blocks << " block(s), CR '" << Cr
                                   << "'";
    }
  }
}
