//===- sim/socket.h - Simulated non-blocking datagram sockets -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper axiomatizes read "for the specific case of non-blocking
/// message-based I/O on datagram sockets" (§3.2, footnote 4). SimSocket
/// is that axiomatization made executable: a FIFO of messages, each with
/// an availability instant; a read returning at instant t succeeds iff
/// a message arrived strictly before t (matching Def. 2.1's t_a < ts[i])
/// and pops the earliest one, else it fails.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_SIM_SOCKET_H
#define RPROSA_SIM_SOCKET_H

#include "core/message.h"
#include "core/time.h"

#include <cstddef>
#include <optional>
#include <vector>

namespace rprosa {

/// One simulated datagram socket.
class SimSocket {
public:
  /// Enqueues a message that becomes readable after instant \p At.
  /// Messages must be enqueued in non-decreasing arrival order.
  void deliver(Time At, Message Msg);

  /// Simulates the return of a non-blocking read at instant
  /// \p ReturnTime: pops and returns the earliest message with arrival
  /// strictly before ReturnTime, or nullopt (EWOULDBLOCK) if none.
  std::optional<Message> tryRead(Time ReturnTime);

  /// True if some queued message is readable at \p ReturnTime.
  bool readable(Time ReturnTime) const;

  /// Earliest arrival instant still queued (nullopt when drained).
  std::optional<Time> nextArrival() const;

  std::size_t queued() const { return Queue.size() - Head; }

  /// Room for \p N more messages, so that delivering them allocates
  /// once.
  void reserve(std::size_t N) { Queue.reserve(Queue.size() + N); }

private:
  struct Entry {
    Time At;
    Message Msg;
  };
  /// The FIFO: entries before Head have been read. Storage is reused
  /// once the queue drains.
  std::vector<Entry> Queue;
  std::size_t Head = 0;
};

} // namespace rprosa

#endif // RPROSA_SIM_SOCKET_H
