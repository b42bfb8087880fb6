//===- tests/alloc_budget_test.cpp - Heap allocations of the pipeline -----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The dynamic pipeline's allocation budget: runAdequacyStreaming keeps
/// its open per-job state in JobTables whose slots are reused from job
/// to job, and looks messages up in the arrival sequence's own index, so
/// a run allocates per system, not per job. Two systems that differ only
/// in their arrival count must make nearly the same number of heap
/// allocations; what may differ is the vectors' doublings. A tree node
/// per job in each sink would add about 8 allocations per arrival.
///
/// This binary replaces the global operator new to count calls; it
/// counts and never times.
///
//===----------------------------------------------------------------------===//

#include "adequacy/pipeline.h"

#include "adequacy_fixtures.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> Allocations{0};

void *counted(std::size_t Size) noexcept {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}
} // namespace

// Every unaligned form is replaced, so that each allocation and its
// release go through malloc and free, also under AddressSanitizer, which
// otherwise pairs its own nothrow forms with these deletes.
void *operator new(std::size_t Size) {
  if (void *P = counted(Size))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) {
  if (void *P = counted(Size))
    return P;
  throw std::bad_alloc();
}
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return counted(Size);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return counted(Size);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

struct Counted {
  std::size_t Allocations = 0;
  std::size_t Arrivals = 0;
  std::size_t Jobs = 0;
};

Counted countRun(const AdequacySpec &Spec) {
  const std::size_t Before = Allocations.load();
  AdequacyReport Rep = runAdequacyStreaming(Spec);
  Counted C;
  C.Allocations = Allocations.load() - Before;
  C.Arrivals = Spec.Arr.size();
  C.Jobs = Rep.NumJobs;
  EXPECT_TRUE(Rep.assumptionsHold() && Rep.invariantsHold() &&
              Rep.theoremHolds());
  return C;
}

} // namespace

TEST(AllocationBudget, AllocationsDoNotGrowWithTheJobs) {
  for (SchedPolicy P :
       {SchedPolicy::Npfp, SchedPolicy::Edf, SchedPolicy::Fifo}) {
    const AdequacySpec Small = denseSpec(7, 3, 1000, 3, P);
    const AdequacySpec Large = denseSpec(7, 3, 4000, 3, P);
    const Counted S = countRun(Small);
    const Counted L = countRun(Large);
    std::printf("[ alloc_budget ] %s: %zu arrivals, %zu jobs: %zu "
                "allocations; %zu arrivals, %zu jobs: %zu allocations\n",
                toString(P).c_str(), S.Arrivals, S.Jobs, S.Allocations,
                L.Arrivals, L.Jobs, L.Allocations);
    ASSERT_GT(L.Jobs, 3 * S.Jobs) << toString(P);
    EXPECT_LE(L.Allocations, S.Allocations + 32)
        << toString(P) << ": " << (L.Allocations - S.Allocations)
        << " more allocations for " << (L.Jobs - S.Jobs) << " more jobs";
  }
}
