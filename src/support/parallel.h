//===- support/parallel.h - Chunked thread pool for batch workloads -------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The substrate of the parallel sweep engine (rta/sweep.h): a small,
/// persistent thread pool with a dynamically chunked parallelFor. The
/// determinism contract every user relies on:
///
///  - the body receives each index in [0, N) exactly once;
///  - bodies write only to index-addressed slots (no shared mutable
///    state), so the *results* are independent of the thread schedule —
///    a pool of 1 and a pool of 16 produce identical output bytes;
///  - indices are handed out through a shared atomic counter (dynamic
///    chunking), so uneven per-index work self-balances without any
///    static partitioning bias.
///
/// The pool is exception-free like the rest of the library: bodies must
/// not throw. With Threads == 1 (the `--serial` escape hatch of the
/// benches) parallelFor degenerates to an inline loop on the calling
/// thread — no worker threads are created at all.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_SUPPORT_PARALLEL_H
#define RPROSA_SUPPORT_PARALLEL_H

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rprosa {

/// The maximum thread count accepted from RPROSA_THREADS and
/// --threads=N. Far above any real machine; the point of the bound is
/// rejecting typos ("--threads=10000" for "--threads=1000" etc. is
/// almost certainly not a request for ten thousand OS threads).
inline constexpr unsigned MaxConfiguredThreads = 4096;

/// The parallelism the machine offers, overridable via the environment
/// variable RPROSA_THREADS. A set-but-invalid value (not an integer in
/// [1, MaxConfiguredThreads]) is a fatal configuration error with a
/// diagnostic naming the offending text — silently clamping or
/// ignoring it would make a CI pin lie about what it pinned.
unsigned defaultParallelism();

/// True when the environment variable \p Name is set to a non-empty
/// value other than "0" — the convention the bench harnesses use for
/// RPROSA_BENCH_SMOKE (tiny grids in CI smoke steps).
bool envFlag(const char *Name);

/// CLI helper for the bench/example harnesses: returns 1 (serial) when
/// the arguments contain "--serial", else \p Default; an explicit
/// "--threads=N" overrides both. An unparsable or out-of-range
/// --threads value is a fatal diagnostic (same contract as
/// RPROSA_THREADS). Unrelated arguments are ignored, so harnesses with
/// positional arguments can pass their argv through unchanged.
unsigned threadsFromArgs(int Argc, char **Argv, unsigned Default = 0);

/// CLI helper for the sweep harnesses: parses "--chunk=N" into a
/// parallel-for chunk size (fatal diagnostic if unparsable or 0);
/// returns \p Default when absent. 0 = derive from the batch
/// (SweepOptions::ChunkSize semantics).
std::size_t chunkFromArgs(int Argc, char **Argv, std::size_t Default = 0);

/// A fixed-size pool of worker threads executing chunked parallel-for
/// batches. Workers are started lazily on the first parallel batch and
/// joined in the destructor.
class ThreadPool {
public:
  /// \p Threads == 0 picks defaultParallelism(). The calling thread
  /// participates in every batch, so a pool of T threads spawns T - 1
  /// workers.
  explicit ThreadPool(unsigned Threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total parallelism (workers + the calling thread).
  unsigned threads() const { return NumThreads; }

  /// Runs Body(I) for every I in [0, N), distributing indices over the
  /// workers and the calling thread; returns when all N calls finished.
  /// Body must not throw and must only write to per-index state.
  /// Equivalent to parallelForChunked(N, 1, Body): maximal balancing,
  /// one atomic claim per index — right for heavy irregular bodies.
  void parallelFor(std::size_t N,
                   const std::function<void(std::size_t)> &Body);

  /// parallelFor with contiguous chunks: lanes claim [k·C, (k+1)·C)
  /// ranges off the shared counter instead of single indices, so cheap
  /// bodies amortize the claim and the wakeups across C calls. Chunk
  /// boundaries are multiples of C independent of the thread count
  /// (each chunk is processed in ascending index order by one lane),
  /// and only as many workers are woken as there are chunks. C is
  /// chunkSize(N, ChunkSize).
  void parallelForChunked(std::size_t N, std::size_t ChunkSize,
                          const std::function<void(std::size_t)> &Body);

  /// The chunk parallelForChunked(N, \p Requested, ...) uses:
  /// \p Requested itself, or for 0 max(1, N / (8 · threads())) — large
  /// enough to amortize, small enough that imbalance still
  /// self-corrects. SweepRunner reports it in its telemetry.
  std::size_t chunkSize(std::size_t N, std::size_t Requested) const {
    return Requested != 0 ? Requested
                          : std::max<std::size_t>(1, N / (8 * NumThreads));
  }

private:
  void workerLoop();
  void startWorkers();
  /// Pulls indices from the given batch until it is drained.
  void drainBatch(void *BatchPtr);

  unsigned NumThreads;
  std::vector<std::thread> Workers;

  std::mutex M;
  std::condition_variable BatchReady;
  std::condition_variable BatchDone;
  /// The batch being distributed (type-erased; see parallel.cpp). Null
  /// when no batch is pending.
  std::shared_ptr<void> CurrentBatch;
  std::uint64_t BatchId = 0;
  bool Stopping = false;
};

} // namespace rprosa

#endif // RPROSA_SUPPORT_PARALLEL_H
