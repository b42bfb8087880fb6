//===- sim/arrival_log.cpp ------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "sim/arrival_log.h"

#include "core/time.h"
#include "support/fields.h"

#include <limits>

using namespace rprosa;

std::optional<ArrivalSequence>
rprosa::parseArrivalLog(const std::string &Text, std::uint32_t NumSockets,
                        std::size_t NumTasks, CheckResult *Diags) {
  std::size_t LineNo = 1;
  auto Fail = [&](const std::string &Why) -> std::optional<ArrivalSequence> {
    if (Diags)
      Diags->addFailure("arrival log error at line " +
                        std::to_string(LineNo) + ": " + Why);
    return std::nullopt;
  };

  std::string_view Rest = Text, Line;
  // The header is matched field by field.
  FieldCursor Header(nextLine(Rest, Line) ? Line : std::string_view());
  if (Header.next() != "refinedprosa-arrivals" || Header.next() != "v1" ||
      !Header.next().empty())
    return Fail("missing or unknown header");

  ArrivalSequence Arr(NumSockets);
  while (nextLine(Rest, Line)) {
    ++LineNo;
    FieldCursor C(Line.substr(0, Line.find('#')));
    std::string_view TimeWord = C.next();
    if (TimeWord.empty())
      continue; // Blank or comment-only.
    std::optional<Duration> At = parseTimeLiteral(TimeWord);
    if (!At)
      return Fail("malformed time '" + std::string(TimeWord) + "'");
    std::string_view SockWord = C.next(), TaskWord = C.next();
    if (TaskWord.empty())
      return Fail("expected '<time> <socket> <task> [payload]'");
    std::optional<std::uint64_t> Sock = parseU64(SockWord);
    if (!Sock)
      return Fail("malformed socket '" + std::string(SockWord) + "'");
    if (*Sock >= NumSockets)
      return Fail("socket " + std::to_string(*Sock) + " out of range (have " +
                  std::to_string(NumSockets) + ")");
    std::optional<std::uint64_t> Task = parseU64(TaskWord);
    if (!Task)
      return Fail("malformed task '" + std::string(TaskWord) + "'");
    if (*Task >= NumTasks)
      return Fail("task " + std::to_string(*Task) + " out of range (have " +
                  std::to_string(NumTasks) + ")");
    std::optional<std::uint64_t> Payload = 16;
    if (std::string_view PayloadWord = C.next(); !PayloadWord.empty()) {
      Payload = parseU64(PayloadWord);
      if (!Payload)
        return Fail("malformed payload '" + std::string(PayloadWord) + "'");
      if (*Payload > std::numeric_limits<std::uint32_t>::max())
        return Fail("payload " + std::to_string(*Payload) +
                    " exceeds 4294967295 bytes");
    }
    if (std::string_view Extra = C.next(); !Extra.empty())
      return Fail("unexpected '" + std::string(Extra) + "' after the payload");
    Arr.addArrival(*At, static_cast<SocketId>(*Sock),
                   static_cast<TaskId>(*Task),
                   static_cast<std::uint32_t>(*Payload));
  }
  return Arr;
}

std::string rprosa::serializeArrivalLog(const ArrivalSequence &Arr) {
  std::string Out = "refinedprosa-arrivals v1\n# time socket task "
                    "payload\n";
  for (const Arrival &A : Arr.arrivals()) {
    Out += std::to_string(A.At);
    Out += ' ';
    Out += std::to_string(A.Socket);
    Out += ' ';
    Out += std::to_string(A.Msg.Task);
    Out += ' ';
    Out += std::to_string(A.Msg.PayloadLen);
    Out += '\n';
  }
  return Out;
}
