//===- sim/socket.cpp -----------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "sim/socket.h"

#include "support/check.h"

using namespace rprosa;

void SimSocket::deliver(Time At, Message Msg) {
  // Armed in every build type: an out-of-order delivery silently breaks
  // the FIFO invariant tryRead's "earliest message" contract rests on,
  // and a Release-mode workload generator would corrupt every trace
  // derived from this socket downstream of the mistake.
  RPROSA_CHECK(Queue.empty() || Queue.back().At <= At,
               "messages must be delivered in non-decreasing arrival order");
  Queue.push_back(Entry{At, Msg});
}

std::optional<Message> SimSocket::tryRead(Time ReturnTime) {
  if (!readable(ReturnTime))
    return std::nullopt;
  Message M = Queue[Head++].Msg;
  if (Head == Queue.size()) {
    Queue.clear();
    Head = 0;
  }
  return M;
}

bool SimSocket::readable(Time ReturnTime) const {
  return Head < Queue.size() && Queue[Head].At < ReturnTime;
}

std::optional<Time> SimSocket::nextArrival() const {
  if (Head == Queue.size())
    return std::nullopt;
  return Queue[Head].At;
}
