//===- core/pending_queue.h - The pending set of every scheduler ----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The jobs a scheduler has read but not yet dispatched, i.e. the
/// container behind npfp_dequeue (Fig. 2, line 6). Entries leave in
/// ascending key order, first in first out among equal keys. A policy
/// changes only the key a scheduler pushes with, never the container:
/// Rössl's keys are `pendingKey` (rossl/scheduler.h); the NPFP-only
/// schedulers (the fault-injection variants, the Caesium machine's
/// builtin, the tick baseline) push `priorityKey`.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CORE_PENDING_QUEUE_H
#define RPROSA_CORE_PENDING_QUEUE_H

#include "core/ids.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace rprosa {

/// The key under which a higher priority leaves first.
inline std::uint64_t priorityKey(Priority P) { return ~std::uint64_t(P); }

/// A min-queue by key, FIFO among equal keys: a binary heap ordered by
/// (key, push number), so its storage is reused from push to push.
template <class T> class PendingQueue {
public:
  void push(std::uint64_t Key, const T &V) {
    Heap.push_back({Key, NextSeq++, V});
    std::push_heap(Heap.begin(), Heap.end(), leavesLater);
  }

  /// The entry that leaves next. Changing it keeps its place.
  T &front() {
    assert(!Heap.empty() && "front() of an empty queue");
    return Heap.front().Value;
  }

  void pop() {
    assert(!Heap.empty() && "pop() of an empty queue");
    std::pop_heap(Heap.begin(), Heap.end(), leavesLater);
    Heap.pop_back();
  }

  std::size_t size() const { return Heap.size(); }
  bool empty() const { return Heap.empty(); }

private:
  struct Entry {
    std::uint64_t Key;
    std::uint64_t Seq;
    T Value;
  };

  /// The heap's order: the top is the entry no other leaves before.
  static bool leavesLater(const Entry &A, const Entry &B) {
    return A.Key != B.Key ? A.Key > B.Key : A.Seq > B.Seq;
  }

  std::vector<Entry> Heap;
  std::uint64_t NextSeq = 0;
};

} // namespace rprosa

#endif // RPROSA_CORE_PENDING_QUEUE_H
