//===- rta/warm_start.h - Seeded fixpoints and iteration telemetry --------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every bound the analyses compute is a *least* fixed point of a
/// monotone map F, reached by Kleene iteration from below. That makes
/// seeding sound under one condition:
///
///   **Soundness.** If F is monotone and Seed ≤ lfp(F), then iterating
///   T ← F(T) from max(Start, Seed) converges to exactly lfp(F).
///   Proof sketch: every iterate stays ≤ lfp (T ≤ lfp ⟹ F(T) ≤
///   F(lfp) = lfp, by induction from the seed); after the first step
///   the sequence is monotone in one direction and bounded by the cap,
///   so it terminates at some fixpoint ≤ lfp — and the least fixpoint
///   is the only fixpoint ≤ lfp.
///
/// A seed *above* the least fixpoint is unsound — iteration can land on
/// a larger fixpoint — so callers may only seed from solutions of
/// *demand-dominated* problems: same fixpoint equations with pointwise
/// smaller-or-equal demand (smaller WCETs, fewer sockets), whose least
/// fixpoint is ≤ ours by monotonicity of the equations in those
/// parameters. SweepRunner enforces this via canSeed (sweep.h);
/// warm_start_test asserts seeded == cold byte-for-byte.
///
/// A seeded iterate may *descend* (F(Seed) < Seed when the seed
/// overshoots intermediate iterates while staying ≤ lfp — it cannot,
/// for a sound seed, but the dual direction arises transiently when
/// Seed lies between iterates), so descent continues the loop instead
/// of being treated as convergence. A map floored at its start
/// (F(T) >= Start, as in the tick baseline) never descends from a cold
/// start.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_RTA_WARM_START_H
#define RPROSA_RTA_WARM_START_H

#include "core/time.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace rprosa {

/// Aggregated fixpoint counters: a plain copyable snapshot (rendered
/// into the sweep telemetry JSON and compared by the benches).
struct FixpointCounts {
  std::uint64_t Fixpoints = 0;   ///< leastFixedPointSeeded calls.
  std::uint64_t Iterations = 0;  ///< F applications across them.
  std::uint64_t SupplyIterations = 0; ///< Blackout-fixpoint F applications.
  std::uint64_t Seeded = 0;      ///< Calls that started from a warm seed.
  /// RosslSupply::timeToSupply calls answered from its memo (sbf.h).
  std::uint64_t SupplyMemoHits = 0;
  /// RosslSupply::timeToSupply calls that ran the blackout fixpoint.
  std::uint64_t SupplyMemoMisses = 0;

  FixpointCounts &operator+=(const FixpointCounts &O) {
    Fixpoints += O.Fixpoints;
    Iterations += O.Iterations;
    SupplyIterations += O.SupplyIterations;
    Seeded += O.Seeded;
    SupplyMemoHits += O.SupplyMemoHits;
    SupplyMemoMisses += O.SupplyMemoMisses;
    return *this;
  }
};

/// A thread-safe telemetry sink the analyses report into (relaxed
/// atomics: counts are exact, ordering is irrelevant). One sink is
/// shared across all points of a sweep.
class FixpointTelemetry {
public:
  void noteFixpoint(std::uint64_t Iters, bool Warm) {
    Fixpoints.fetch_add(1, std::memory_order_relaxed);
    Iterations.fetch_add(Iters, std::memory_order_relaxed);
    if (Warm)
      Seeded.fetch_add(1, std::memory_order_relaxed);
  }

  void noteSupplyIterations(std::uint64_t Iters) {
    SupplyIterations.fetch_add(Iters, std::memory_order_relaxed);
  }

  /// One supply's memo totals, added once when the supply retires.
  void noteSupplyMemo(std::uint64_t Hits, std::uint64_t Misses) {
    SupplyMemoHits.fetch_add(Hits, std::memory_order_relaxed);
    SupplyMemoMisses.fetch_add(Misses, std::memory_order_relaxed);
  }

  FixpointCounts snapshot() const {
    FixpointCounts C;
    C.Fixpoints = Fixpoints.load(std::memory_order_relaxed);
    C.Iterations = Iterations.load(std::memory_order_relaxed);
    C.SupplyIterations = SupplyIterations.load(std::memory_order_relaxed);
    C.Seeded = Seeded.load(std::memory_order_relaxed);
    C.SupplyMemoHits = SupplyMemoHits.load(std::memory_order_relaxed);
    C.SupplyMemoMisses = SupplyMemoMisses.load(std::memory_order_relaxed);
    return C;
  }

  void reset() {
    Fixpoints.store(0, std::memory_order_relaxed);
    Iterations.store(0, std::memory_order_relaxed);
    SupplyIterations.store(0, std::memory_order_relaxed);
    Seeded.store(0, std::memory_order_relaxed);
    SupplyMemoHits.store(0, std::memory_order_relaxed);
    SupplyMemoMisses.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<std::uint64_t> Fixpoints{0};
  std::atomic<std::uint64_t> Iterations{0};
  std::atomic<std::uint64_t> SupplyIterations{0};
  std::atomic<std::uint64_t> Seeded{0};
  std::atomic<std::uint64_t> SupplyMemoHits{0};
  std::atomic<std::uint64_t> SupplyMemoMisses{0};
};

/// Per-task fixpoint seeds extracted from an already-solved
/// demand-dominated analysis. Index = task id; 0 = no seed (cold).
/// Only *bounded* solutions contribute seeds — an unbounded neighbor
/// proves nothing about our least fixpoint.
struct WarmStart {
  std::vector<Duration> BusyWindow;

  Duration busyWindowSeed(std::size_t TaskIdx) const {
    return TaskIdx < BusyWindow.size() ? BusyWindow[TaskIdx] : 0;
  }

  bool empty() const { return BusyWindow.empty(); }
};

/// The one fixed-point iterator of the analyses: Kleene iteration
/// T ← F(T) from max(Start, Seed) with an optional warm seed and
/// iteration telemetry. \p Seed MUST be ≤ the least fixed point above
/// Start (0 = cold start). Returns nullopt once an iterate exceeds
/// \p Cap (arsa.h's exceedsCap). \p IterationsOut (if non-null)
/// receives the number of F applications.
std::optional<Time>
leastFixedPointSeeded(const std::function<Time(Time)> &F, Time Start,
                      Time Seed, Time Cap,
                      std::uint64_t *IterationsOut = nullptr);

} // namespace rprosa

#endif // RPROSA_RTA_WARM_START_H
