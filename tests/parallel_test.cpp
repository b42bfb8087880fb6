//===- tests/parallel_test.cpp - ThreadPool and parallelFor ---------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

using namespace rprosa;

TEST(ThreadPool, EveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  const std::size_t N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(N, [&](std::size_t I) { Hits[I].fetch_add(1); });
  for (std::size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, SerialPoolRunsInline) {
  // Threads == 1 must degenerate to a plain loop on the calling thread
  // (the --serial escape hatch): in-order and same-thread.
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.threads(), 1u);
  std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::size_t> Order;
  Pool.parallelFor(16, [&](std::size_t I) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Order.push_back(I);
  });
  std::vector<std::size_t> Expected(16);
  std::iota(Expected.begin(), Expected.end(), 0);
  EXPECT_EQ(Order, Expected);
}

TEST(ThreadPool, EmptyAndSingletonBatches) {
  ThreadPool Pool(4);
  int Calls = 0;
  Pool.parallelFor(0, [&](std::size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
  Pool.parallelFor(1, [&](std::size_t I) {
    ++Calls;
    EXPECT_EQ(I, 0u);
  });
  EXPECT_EQ(Calls, 1);
}

TEST(ThreadPool, IndexAddressedSlotsAreDeterministic) {
  // The engine's determinism contract: bodies writing only their own
  // slot produce results independent of the thread count.
  auto Run = [](unsigned Threads) {
    ThreadPool Pool(Threads);
    std::vector<std::uint64_t> Out(257);
    Pool.parallelFor(Out.size(),
                     [&](std::size_t I) { Out[I] = I * I + 7; });
    return Out;
  };
  EXPECT_EQ(Run(1), Run(4));
  EXPECT_EQ(Run(2), Run(8));
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool Pool(4);
  for (int Round = 0; Round < 20; ++Round) {
    std::atomic<std::uint64_t> Sum{0};
    Pool.parallelFor(100, [&](std::size_t I) { Sum.fetch_add(I); });
    EXPECT_EQ(Sum.load(), 4950u);
  }
}

TEST(ThreadPool, ManyMoreIndicesThanThreads) {
  ThreadPool Pool(2);
  std::atomic<std::uint64_t> Sum{0};
  Pool.parallelFor(10000, [&](std::size_t I) { Sum.fetch_add(I + 1); });
  EXPECT_EQ(Sum.load(), 10000ull * 10001 / 2);
}

TEST(ThreadPool, NestedSerialForInsideParallelFor) {
  // Points of a sweep may themselves use a serial pool (the runner's
  // per-point analyses never nest parallel batches, but a body calling
  // a Threads==1 pool must be safe since that is just an inline loop).
  ThreadPool Outer(4);
  std::vector<std::uint64_t> Out(32);
  Outer.parallelFor(Out.size(), [&](std::size_t I) {
    ThreadPool Inner(1);
    Inner.parallelFor(8, [&](std::size_t J) { Out[I] += I + J; });
  });
  for (std::size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Out[I], 8 * I + 28);
}

TEST(DefaultParallelism, EnvOverrideWins) {
  setenv("RPROSA_THREADS", "3", 1);
  EXPECT_EQ(defaultParallelism(), 3u);
  setenv("RPROSA_THREADS", "4096", 1); // The inclusive maximum.
  EXPECT_EQ(defaultParallelism(), MaxConfiguredThreads);
  setenv("RPROSA_THREADS", "", 1); // Empty counts as unset.
  EXPECT_GE(defaultParallelism(), 1u);
  unsetenv("RPROSA_THREADS");
  EXPECT_GE(defaultParallelism(), 1u);
}

TEST(DefaultParallelismDeathTest, InvalidEnvIsFatal) {
  // A set-but-invalid pin must die with a diagnostic naming the bad
  // value — never silently clamp or fall back (a CI pin that quietly
  // means something else is worse than a crash).
  setenv("RPROSA_THREADS", "0", 1);
  EXPECT_DEATH(defaultParallelism(), "invalid RPROSA_THREADS '0'");
  setenv("RPROSA_THREADS", "9999", 1); // Above MaxConfiguredThreads.
  EXPECT_DEATH(defaultParallelism(), "invalid RPROSA_THREADS '9999'");
  setenv("RPROSA_THREADS", "12abc", 1); // Garbage suffix.
  EXPECT_DEATH(defaultParallelism(), "invalid RPROSA_THREADS '12abc'");
  setenv("RPROSA_THREADS", "abc0", 1); // Garbage-then-zero.
  EXPECT_DEATH(defaultParallelism(), "invalid RPROSA_THREADS 'abc0'");
  setenv("RPROSA_THREADS", "-2", 1); // No signs accepted.
  EXPECT_DEATH(defaultParallelism(), "invalid RPROSA_THREADS '-2'");
  setenv("RPROSA_THREADS", " 4", 1); // No whitespace accepted.
  EXPECT_DEATH(defaultParallelism(), "invalid RPROSA_THREADS ' 4'");
  setenv("RPROSA_THREADS", "18446744073709551617", 1); // Overflow.
  EXPECT_DEATH(defaultParallelism(), "invalid RPROSA_THREADS");
  unsetenv("RPROSA_THREADS");
}

TEST(ThreadsFromArgsDeathTest, InvalidFlagIsFatal) {
  char A0[] = "bench";
  char A1[] = "--threads=0";
  char A2[] = "--threads=10000";
  char A3[] = "--threads=4x";
  {
    char *Argv[] = {A0, A1};
    EXPECT_DEATH(threadsFromArgs(2, Argv), "invalid --threads '0'");
  }
  {
    char *Argv[] = {A0, A2};
    EXPECT_DEATH(threadsFromArgs(2, Argv), "invalid --threads '10000'");
  }
  {
    char *Argv[] = {A0, A3};
    EXPECT_DEATH(threadsFromArgs(2, Argv), "invalid --threads '4x'");
  }
}

TEST(ChunkFromArgs, ParsesAndDefaults) {
  char A0[] = "bench";
  char A1[] = "--chunk=32";
  char A2[] = "positional";
  {
    char *Argv[] = {A0, A1};
    EXPECT_EQ(chunkFromArgs(2, Argv), 32u);
  }
  {
    char *Argv[] = {A0, A2};
    EXPECT_EQ(chunkFromArgs(2, Argv), 0u);
    EXPECT_EQ(chunkFromArgs(2, Argv, 16), 16u);
  }
}

TEST(ChunkFromArgsDeathTest, InvalidChunkIsFatal) {
  char A0[] = "bench";
  char A1[] = "--chunk=0";
  char A2[] = "--chunk=huge";
  {
    char *Argv[] = {A0, A1};
    EXPECT_DEATH(chunkFromArgs(2, Argv), "invalid --chunk '0'");
  }
  {
    char *Argv[] = {A0, A2};
    EXPECT_DEATH(chunkFromArgs(2, Argv), "invalid --chunk 'huge'");
  }
}

TEST(ThreadPool, ChunkedEveryIndexExactlyOnce) {
  // Chunked claims must still hand out each index exactly once, for
  // chunk sizes that divide N, don't divide N, and exceed N.
  for (std::size_t Chunk : {1u, 3u, 16u, 250u, 1000u, 5000u}) {
    ThreadPool Pool(4);
    const std::size_t N = 1000;
    std::vector<std::atomic<int>> Hits(N);
    Pool.parallelForChunked(N, Chunk,
                            [&](std::size_t I) { Hits[I].fetch_add(1); });
    for (std::size_t I = 0; I < N; ++I)
      ASSERT_EQ(Hits[I].load(), 1) << "chunk " << Chunk << " index " << I;
  }
}

TEST(ThreadPool, ChunkedRunsChunksInAscendingOrderPerLane) {
  // Within one chunk the indices are processed in ascending order by a
  // single lane, as parallelForChunked documents.
  ThreadPool Pool(4);
  const std::size_t N = 256, Chunk = 16;
  std::vector<std::thread::id> Lane(N);
  std::vector<std::uint64_t> Seq(N);
  std::atomic<std::uint64_t> Tick{0};
  Pool.parallelForChunked(N, Chunk, [&](std::size_t I) {
    Lane[I] = std::this_thread::get_id();
    Seq[I] = Tick.fetch_add(1);
  });
  for (std::size_t I = 0; I < N; ++I) {
    if (I % Chunk == 0)
      continue;
    EXPECT_EQ(Lane[I], Lane[I - 1]) << "index " << I;
    EXPECT_GT(Seq[I], Seq[I - 1]) << "index " << I;
  }
}

TEST(ThreadPool, ChunkedDeterministicResults) {
  auto Run = [](unsigned Threads, std::size_t Chunk) {
    ThreadPool Pool(Threads);
    std::vector<std::uint64_t> Out(1031);
    Pool.parallelForChunked(Out.size(), Chunk,
                            [&](std::size_t I) { Out[I] = I * 31 + 7; });
    return Out;
  };
  EXPECT_EQ(Run(1, 1), Run(4, 7));
  EXPECT_EQ(Run(2, 64), Run(8, 0)); // 0 = derived chunk.
}

TEST(ThreadsFromArgs, SerialAndThreadsFlags) {
  char A0[] = "bench";
  char A1[] = "--serial";
  char A2[] = "--threads=6";
  char A3[] = "positional";
  {
    char *Argv[] = {A0, A1};
    EXPECT_EQ(threadsFromArgs(2, Argv), 1u);
  }
  {
    char *Argv[] = {A0, A2};
    EXPECT_EQ(threadsFromArgs(2, Argv), 6u);
  }
  {
    // --threads overrides --serial regardless of order.
    char *Argv[] = {A0, A1, A2};
    EXPECT_EQ(threadsFromArgs(3, Argv), 6u);
  }
  {
    char *Argv[] = {A0, A2, A1};
    EXPECT_EQ(threadsFromArgs(3, Argv), 6u);
  }
  {
    char *Argv[] = {A0, A3};
    EXPECT_EQ(threadsFromArgs(2, Argv, 7), 7u);
  }
}
