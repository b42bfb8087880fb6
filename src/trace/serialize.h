//===- trace/serialize.h - Timed-trace text serialization -----------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A line-oriented text format for timed traces, so runs can be stored,
/// diffed, and re-checked offline (see examples/trace_inspector.cpp).
///
///   refinedprosa-trace v1
///   <ts> ReadS
///   <ts> ReadE <sock> ok <jobid> <msgid> <task> <readat>
///   <ts> ReadE <sock> fail
///   <ts> Selection
///   <ts> Dispatch <jobid> <msgid> <task> <readat> <sock>
///   <ts> Execution ...            (same fields as Dispatch)
///   <ts> Completion ...
///   <ts> Idling
///   end <EndTime>
///
/// This file holds the writer. readTraceStream/readTimedTrace
/// (trace/chunked_io.h) read this format and the chunked v2 format,
/// which groups the same marker lines (appendMarkerLine) into bounded
/// chunks. The fields and numbers follow the grammar of DESIGN.md §9.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TRACE_SERIALIZE_H
#define RPROSA_TRACE_SERIALIZE_H

#include "trace/trace.h"

#include <string>
#include <string_view>

namespace rprosa {

/// Renders \p TT in the v1 text format.
std::string serializeTimedTrace(const TimedTrace &TT);

/// Appends one `<ts> <marker...>` line (with trailing newline) to
/// \p Out.
void appendMarkerLine(std::string &Out, Time Ts, const MarkerEvent &E);

/// The word a marker line names \p K with ("ReadS", "Dispatch", ...).
inline std::string_view markerWord(MarkerKind K) {
  switch (K) {
  case MarkerKind::ReadS:
    return "ReadS";
  case MarkerKind::ReadE:
    return "ReadE";
  case MarkerKind::Selection:
    return "Selection";
  case MarkerKind::Dispatch:
    return "Dispatch";
  case MarkerKind::Execution:
    return "Execution";
  case MarkerKind::Completion:
    return "Completion";
  case MarkerKind::Idling:
    return "Idling";
  }
  return "?";
}

} // namespace rprosa

#endif // RPROSA_TRACE_SERIALIZE_H
