//===- support/small_vec.h - A vector with inline storage -----------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SmallVec<T, N> keeps up to N trivially copyable elements inside the
/// object and moves to one heap block only above that. The dataflow
/// states (analysis/dataflow) hold one per CFG node, sized once by the
/// domain and then overwritten in place, so within the inline capacity
/// a solve allocates no block per node. Copy assignment reuses the
/// destination's storage whenever it is large enough.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_SUPPORT_SMALL_VEC_H
#define RPROSA_SUPPORT_SMALL_VEC_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace rprosa {

template <class T, std::size_t N> class SmallVec {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

public:
  // Copies only the elements in use; a move copies too, since the
  // states are assigned in place and never moved on the hot path.
  SmallVec() = default;
  SmallVec(const SmallVec &O) { *this = O; }
  SmallVec &operator=(const SmallVec &O) {
    if (this != &O) {
      reserveDiscarding(O.Size);
      std::copy_n(O.data(), O.Size, data());
      Size = O.Size;
    }
    return *this;
  }

  /// Replaces the contents with \p Count copies of \p V.
  void assign(std::size_t Count, const T &V) {
    reserveDiscarding(Count);
    Size = static_cast<std::uint32_t>(Count);
    std::fill_n(data(), Count, V);
  }

  std::size_t size() const { return Size; }
  T *data() { return Heap ? Heap.get() : Inline.Items; }
  const T *data() const { return Heap ? Heap.get() : Inline.Items; }
  T &operator[](std::size_t I) { return data()[I]; }
  const T &operator[](std::size_t I) const { return data()[I]; }
  T &back() { return data()[Size - 1]; }
  const T *begin() const { return data(); }
  const T *end() const { return data() + Size; }

  friend bool operator==(const SmallVec &A, const SmallVec &B) {
    return std::equal(A.begin(), A.end(), B.begin(), B.end());
  }

private:
  /// Makes room for \p Count elements; the old contents may be lost.
  void reserveDiscarding(std::size_t Count) {
    if (Count <= Cap)
      return;
    Heap = std::make_unique_for_overwrite<T[]>(Count);
    Cap = static_cast<std::uint32_t>(Count);
  }

  /// The inline elements, left unconstructed until written.
  union Storage {
    Storage() {}
    T Items[N];
  } Inline;
  std::unique_ptr<T[]> Heap; ///< Set once the contents outgrew Inline.
  std::uint32_t Size = 0;
  std::uint32_t Cap = N;
};

} // namespace rprosa

#endif // RPROSA_SUPPORT_SMALL_VEC_H
