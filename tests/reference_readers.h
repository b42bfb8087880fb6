//===- tests/reference_readers.h - Pre-cursor text readers ----------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's text readers as they stood before they were rebuilt on
/// the shared field cursor (support/fields.h): the v1/v2 trace reader
/// with its istringstream marker-line parser, the arrival-log reader,
/// the system-spec reader and the time-literal parser. Each keeps its
/// own tokenizer and number parser. reader_equivalence_test runs them
/// against the library on mutated inputs; every difference must fall
/// in one of the divergences DESIGN.md §9 names. Compiled into that
/// test only; no library target links them.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TESTS_REFERENCE_READERS_H
#define RPROSA_TESTS_REFERENCE_READERS_H

#include "adequacy/spec_parser.h"
#include "core/arrival_sequence.h"
#include "support/check.h"
#include "trace/chunked_io.h"
#include "trace/stream.h"

#include <iosfwd>
#include <optional>
#include <string>

namespace rprosa::reference {

bool parseMarkerLine(const std::string &Line, Time &Ts, MarkerEvent &E,
                     std::string *Why = nullptr);

bool readTraceStream(std::istream &In, TraceSink &Sink,
                     CheckResult *Diags = nullptr,
                     TraceStreamStats *Stats = nullptr);

std::optional<Duration> parseTimeLiteral(const std::string &Text);

std::optional<ArrivalSequence> parseArrivalLog(const std::string &Text,
                                               std::uint32_t NumSockets,
                                               std::size_t NumTasks,
                                               CheckResult *Diags = nullptr);

std::optional<SystemSpec> parseSystemSpec(const std::string &Text,
                                          CheckResult *Diags = nullptr);

} // namespace rprosa::reference

#endif // RPROSA_TESTS_REFERENCE_READERS_H
