//===- core/job_table.h - Flat tables for open per-job state ---------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JobTable is the one container behind the dynamic pipeline's open
/// per-job state (DESIGN.md §9): the schedule builder's live job table,
/// validity's usage totals and records, the functional sink's pending
/// (policy key, job id) pairs and the deadline sink's open jobs.
///
/// Entries live in one slot array whose freed slots are reused first,
/// and are found through an open-addressing index of slot numbers
/// (linear probing; erase shifts the probe run back, so no tombstones).
/// A run whose open jobs stay below some bound therefore allocates only
/// while the table grows to that bound. find, insert and erase cost
/// O(1) expected; iteration (forEach) is in no particular order.
///
/// An entry may also join the table's order index, a binary min-heap on
/// a 64-bit order key that keeps each entry's heap position in its slot:
/// order, unorder and erase cost O(log n), minOrder O(1), and
/// visitBelow(B) reaches the m ordered entries whose key is below B in
/// O(m + 1) steps, in heap order rather than key order.
///
/// A Handle names an entry until the entry is erased. A reference to a
/// value stays valid until the next insert.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CORE_JOB_TABLE_H
#define RPROSA_CORE_JOB_TABLE_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rprosa {

/// The default key hash: the id itself (the table scrambles it).
struct IdHash {
  std::uint64_t operator()(std::uint64_t Id) const { return Id; }
};

template <typename Key, typename Value, typename Hash = IdHash>
class JobTable {
public:
  using Handle = std::uint32_t;
  static constexpr Handle None = ~Handle(0);

  /// The entry keyed \p K, or None.
  Handle find(const Key &K) const {
    if (Live == 0)
      return None;
    for (std::size_t P = home(K);; P = (P + 1) & Mask) {
      std::uint32_t S = Index[P];
      if (S == 0)
        return None;
      if (Slots[S - 1].K == K)
        return S - 1;
    }
  }

  /// The entry keyed \p K, inserted with a value-initialized value when
  /// absent; second tells whether it was inserted.
  std::pair<Handle, bool> insert(const Key &K) {
    if (Handle H = find(K); H != None)
      return {H, false};
    if (2 * (Live + 1) > Index.size())
      grow();
    Handle H;
    if (!Free.empty()) {
      H = Free.back();
      Free.pop_back();
      Slots[H].K = K;
      Slots[H].V = Value();
    } else {
      H = static_cast<Handle>(Slots.size());
      Slots.push_back(Slot{K, Value(), 0, None});
    }
    Slots[H].HeapPos = None;
    std::size_t P = home(K);
    while (Index[P] != 0)
      P = (P + 1) & Mask;
    Index[P] = H + 1;
    ++Live;
    return {H, true};
  }

  /// Removes entry \p H (and its place in the order index).
  void erase(Handle H) {
    unorder(H);
    std::size_t P = home(Slots[H].K);
    while (Index[P] != H + 1)
      P = (P + 1) & Mask;
    // Backward shift: pull each later entry of the probe run into the
    // hole unless its home lies cyclically in (hole, its position].
    for (std::size_t Q = (P + 1) & Mask; Index[Q] != 0; Q = (Q + 1) & Mask) {
      std::size_t Home = home(Slots[Index[Q] - 1].K);
      if (((Q - Home) & Mask) >= ((Q - P) & Mask)) {
        Index[P] = Index[Q];
        P = Q;
      }
    }
    Index[P] = 0;
    Free.push_back(H);
    --Live;
  }

  Value &operator[](Handle H) { return Slots[H].V; }
  const Value &operator[](Handle H) const { return Slots[H].V; }
  const Key &key(Handle H) const { return Slots[H].K; }

  std::size_t size() const { return Live; }
  bool empty() const { return Live == 0; }

  /// Removes every entry; the storage stays for reuse.
  void clear() {
    std::fill(Index.begin(), Index.end(), 0);
    Slots.clear();
    Free.clear();
    Heap.clear();
    Live = 0;
  }

  /// Calls \p F(Handle) once per entry, in no particular order. \p F
  /// must not insert or erase.
  template <typename Fn> void forEach(Fn F) const {
    for (std::uint32_t S : Index)
      if (S != 0)
        F(Handle(S - 1));
  }

  /// Puts entry \p H into the order index under \p Ord, or moves it
  /// there if it is already in.
  void order(Handle H, std::uint64_t Ord) {
    Slot &E = Slots[H];
    if (E.HeapPos == None) {
      E.Ord = Ord;
      E.HeapPos = static_cast<std::uint32_t>(Heap.size());
      Heap.push_back(H);
      siftUp(E.HeapPos);
      return;
    }
    std::uint64_t Old = E.Ord;
    E.Ord = Ord;
    if (Ord < Old)
      siftUp(E.HeapPos);
    else
      siftDown(E.HeapPos);
  }

  /// Takes entry \p H out of the order index (no-op when it is not in).
  void unorder(Handle H) {
    std::uint32_t P = Slots[H].HeapPos;
    if (P == None)
      return;
    Slots[H].HeapPos = None;
    Handle Last = Heap.back();
    Heap.pop_back();
    if (P == Heap.size())
      return;
    Heap[P] = Last;
    Slots[Last].HeapPos = P;
    siftUp(P);
    siftDown(Slots[Last].HeapPos);
  }

  /// The least order key. Precondition: some entry is ordered.
  std::uint64_t minOrder() const {
    assert(!Heap.empty() && "empty order index");
    return Slots[Heap.front()].Ord;
  }

  /// Calls \p F(Handle) for each ordered entry whose key is below
  /// \p Bound, in heap order. \p F must not change the table.
  template <typename Fn> void visitBelow(std::uint64_t Bound, Fn F) const {
    visitBelow(Bound, F, 0);
  }

private:
  struct Slot {
    Key K;
    Value V;
    std::uint64_t Ord;
    std::uint32_t HeapPos;
  };

  std::size_t home(const Key &K) const {
    // Fibonacci hashing: the high bits of the scrambled key.
    return static_cast<std::size_t>((Hash()(K) * 0x9E3779B97F4A7C15ull) >>
                                    Shift);
  }

  void grow() {
    std::size_t Cap = Index.empty() ? 16 : 2 * Index.size();
    std::vector<std::uint32_t> Old;
    Old.swap(Index);
    Index.assign(Cap, 0);
    Mask = Cap - 1;
    Shift = 64;
    for (std::size_t C = Cap; C > 1; C >>= 1)
      --Shift;
    for (std::uint32_t S : Old) {
      if (S == 0)
        continue;
      std::size_t P = home(Slots[S - 1].K);
      while (Index[P] != 0)
        P = (P + 1) & Mask;
      Index[P] = S;
    }
  }

  bool before(std::uint32_t A, std::uint32_t B) const {
    return Slots[Heap[A]].Ord < Slots[Heap[B]].Ord;
  }
  void swapAt(std::uint32_t A, std::uint32_t B) {
    std::swap(Heap[A], Heap[B]);
    Slots[Heap[A]].HeapPos = A;
    Slots[Heap[B]].HeapPos = B;
  }
  void siftUp(std::uint32_t P) {
    while (P > 0) {
      std::uint32_t Parent = (P - 1) / 2;
      if (!before(P, Parent))
        return;
      swapAt(P, Parent);
      P = Parent;
    }
  }
  void siftDown(std::uint32_t P) {
    for (;;) {
      std::uint32_t L = 2 * P + 1, Least = P;
      if (L < Heap.size() && before(L, Least))
        Least = L;
      if (L + 1 < Heap.size() && before(L + 1, Least))
        Least = L + 1;
      if (Least == P)
        return;
      swapAt(P, Least);
      P = Least;
    }
  }

  template <typename Fn>
  void visitBelow(std::uint64_t Bound, Fn &F, std::size_t P) const {
    // Heap order: a parent's key never exceeds its children's, so the
    // entries below Bound form a subtree at the root.
    if (P >= Heap.size() || Slots[Heap[P]].Ord >= Bound)
      return;
    F(Heap[P]);
    visitBelow(Bound, F, 2 * P + 1);
    visitBelow(Bound, F, 2 * P + 2);
  }

  std::vector<Slot> Slots;
  std::vector<Handle> Free;
  std::vector<std::uint32_t> Index; ///< Slot number + 1; 0 is empty.
  std::vector<Handle> Heap;
  std::size_t Live = 0;
  std::size_t Mask = 0;
  unsigned Shift = 64;
};

} // namespace rprosa

#endif // RPROSA_CORE_JOB_TABLE_H
