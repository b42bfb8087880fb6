//===- support/parallel.cpp -----------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/parallel.h"

#include "support/fields.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

using namespace rprosa;

namespace {

/// Strict parse of a configured count: decimal digits only, value in
/// [Min, Max]. Anything else — garbage, garbage-prefixed zero, silent
/// out-of-range — is a fatal configuration error: these values come
/// from explicit user/CI pins, and "you asked for X, I quietly did Y"
/// is how pinned runs stop meaning anything.
std::uint64_t parseCount(const char *Text, const char *What,
                         std::uint64_t Min, std::uint64_t Max) {
  std::optional<std::uint64_t> V = parseU64(Text);
  if (!V || *V < Min || *V > Max) {
    std::fprintf(stderr,
                 "rprosa: invalid %s '%s': expected an integer in "
                 "[%llu, %llu]\n",
                 What, Text, static_cast<unsigned long long>(Min),
                 static_cast<unsigned long long>(Max));
    std::abort();
  }
  return *V;
}

} // namespace

unsigned rprosa::defaultParallelism() {
  // An empty value counts as unset (`RPROSA_THREADS= ./bench` is the
  // conventional way to clear a pin for one command).
  const char *Env = std::getenv("RPROSA_THREADS");
  if (Env && *Env)
    return static_cast<unsigned>(
        parseCount(Env, "RPROSA_THREADS", 1, MaxConfiguredThreads));
  unsigned H = std::thread::hardware_concurrency();
  return H == 0 ? 1 : H;
}

bool rprosa::envFlag(const char *Name) {
  const char *Env = std::getenv(Name);
  return Env && *Env && !(Env[0] == '0' && Env[1] == '\0');
}

unsigned rprosa::threadsFromArgs(int Argc, char **Argv, unsigned Default) {
  unsigned Serial = 0, Explicit = 0;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--serial") == 0)
      Serial = 1;
    else if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      Explicit = static_cast<unsigned>(parseCount(
          Argv[I] + 10, "--threads", 1, MaxConfiguredThreads));
  }
  // An explicit count beats --serial beats the default, independent of
  // argument order.
  if (Explicit)
    return Explicit;
  if (Serial)
    return 1;
  return Default;
}

std::size_t rprosa::chunkFromArgs(int Argc, char **Argv,
                                  std::size_t Default) {
  std::size_t Chunk = Default;
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--chunk=", 8) == 0)
      Chunk = static_cast<std::size_t>(
          parseCount(Argv[I] + 8, "--chunk", 1, 1ull << 32));
  return Chunk;
}

namespace {

/// One parallel-for batch. Heap-allocated and shared with the workers,
/// so a worker that wakes up late only ever touches a batch object that
/// is still alive (it then finds all indices claimed and goes back to
/// sleep) — new batches can never be corrupted by stragglers.
struct Batch {
  std::function<void(std::size_t)> Body;
  std::size_t N = 0;
  /// Indices are claimed Chunk at a time: one fetch_add hands a lane
  /// the contiguous range [v, min(v + Chunk, N)). Chunk boundaries are
  /// multiples of Chunk regardless of which lane claims them.
  std::size_t Chunk = 1;
  std::atomic<std::size_t> Next{0};
  std::atomic<std::size_t> Remaining{0};
};

} // namespace

ThreadPool::ThreadPool(unsigned Threads)
    : NumThreads(Threads == 0 ? defaultParallelism() : Threads) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(M);
    Stopping = true;
  }
  BatchReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::startWorkers() {
  if (!Workers.empty())
    return;
  Workers.reserve(NumThreads - 1);
  for (unsigned I = 0; I + 1 < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

void ThreadPool::parallelFor(
    std::size_t N, const std::function<void(std::size_t)> &Body) {
  parallelForChunked(N, 1, Body);
}

void ThreadPool::parallelForChunked(
    std::size_t N, std::size_t ChunkSize,
    const std::function<void(std::size_t)> &Body) {
  if (N == 0)
    return;
  ChunkSize = chunkSize(N, ChunkSize);
  if (NumThreads <= 1 || N <= ChunkSize) {
    // The serial escape hatch (also taken when one chunk covers the
    // whole batch): an inline loop, no threads at all.
    for (std::size_t I = 0; I < N; ++I)
      Body(I);
    return;
  }

  auto B = std::make_shared<Batch>();
  B->Body = Body; // Copied: stragglers may outlive this call frame.
  B->N = N;
  B->Chunk = ChunkSize;
  B->Remaining.store(N, std::memory_order_relaxed);

  // Lanes beyond the chunk count would wake, find nothing to claim,
  // and go back to sleep: wake only as many workers as can actually
  // get a chunk (the calling thread takes one lane itself). A lost
  // wakeup is impossible — a woken worker drains until Next passes N,
  // and the caller drains the batch regardless.
  std::size_t Chunks = (N + ChunkSize - 1) / ChunkSize;
  std::size_t Wake = std::min<std::size_t>(NumThreads - 1, Chunks - 1);
  {
    std::lock_guard<std::mutex> L(M);
    startWorkers();
    CurrentBatch = B;
    ++BatchId;
  }
  if (Wake >= Workers.size()) {
    BatchReady.notify_all();
  } else {
    for (std::size_t I = 0; I < Wake; ++I)
      BatchReady.notify_one();
  }

  // The calling thread is one of the pool's lanes.
  drainBatch(B.get());

  {
    std::unique_lock<std::mutex> L(M);
    BatchDone.wait(L, [&] {
      return B->Remaining.load(std::memory_order_acquire) == 0;
    });
    if (CurrentBatch == std::static_pointer_cast<void>(B))
      CurrentBatch.reset();
  }
}

void ThreadPool::drainBatch(void *BatchPtr) {
  Batch *B = static_cast<Batch *>(BatchPtr);
  const std::size_t Chunk = B->Chunk;
  while (true) {
    std::size_t Lo = B->Next.fetch_add(Chunk, std::memory_order_relaxed);
    if (Lo >= B->N)
      return;
    std::size_t Hi = std::min(B->N, Lo + Chunk);
    for (std::size_t I = Lo; I < Hi; ++I)
      B->Body(I);
    if (B->Remaining.fetch_sub(Hi - Lo, std::memory_order_acq_rel) ==
        Hi - Lo) {
      // Last indices of the batch: wake the submitter.
      std::lock_guard<std::mutex> L(M);
      BatchDone.notify_all();
    }
  }
}

void ThreadPool::workerLoop() {
  std::uint64_t LastSeen = 0;
  while (true) {
    std::shared_ptr<void> Mine;
    {
      std::unique_lock<std::mutex> L(M);
      BatchReady.wait(L, [&] {
        return Stopping || (CurrentBatch && BatchId != LastSeen);
      });
      if (Stopping)
        return;
      Mine = CurrentBatch;
      LastSeen = BatchId;
    }
    drainBatch(Mine.get());
  }
}
