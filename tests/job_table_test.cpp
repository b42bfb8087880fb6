//===- tests/job_table_test.cpp - JobTable against std::map ---------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// JobTable (core/job_table.h) under seeded random inserts, erases,
/// re-keys and order-index queries, checked against a std::map and a
/// linear scan (in full every 16 steps, and while the table is small). Keys are drawn from small ranges, so
/// probe runs collide, wrap around the index and are shifted back by
/// erases, and from monotone ranges, as the simulator's job ids are.
///
//===----------------------------------------------------------------------===//

#include "core/job_table.h"
#include "support/rng.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace rprosa;

namespace {

struct Model {
  std::uint64_t Value = 0;
  std::optional<std::uint64_t> Ord;
};

void expectSame(const JobTable<std::uint64_t, std::uint64_t> &T,
                const std::map<std::uint64_t, Model> &M,
                const std::string &Where) {
  ASSERT_EQ(T.size(), M.size()) << Where;
  ASSERT_EQ(T.empty(), M.empty()) << Where;
  std::set<std::uint64_t> Seen;
  T.forEach([&](auto H) { Seen.insert(T.key(H)); });
  ASSERT_EQ(Seen.size(), M.size()) << Where;
  std::optional<std::uint64_t> Min;
  for (const auto &[K, E] : M) {
    auto H = T.find(K);
    ASSERT_NE(H, T.None) << "key " << K << Where;
    ASSERT_EQ(T[H], E.Value) << "key " << K << Where;
    ASSERT_TRUE(Seen.count(K)) << "key " << K << Where;
    if (E.Ord && (!Min || *E.Ord < *Min))
      Min = E.Ord;
  }
  if (Min) {
    ASSERT_EQ(T.minOrder(), *Min) << Where;
  }
}

} // namespace

TEST(JobTable, MatchesAMapUnderRandomOperations) {
  const std::uint64_t Base = testutil::fuzzSeed(0);
  for (std::uint64_t Run = 0; Run < 40; ++Run) {
    SplitMix64 Rng(Base * 7717 + Run);
    const std::uint64_t Range = Run % 2 ? 64 : 4096;
    JobTable<std::uint64_t, std::uint64_t> T;
    std::map<std::uint64_t, Model> M;
    std::uint64_t Next = 0; // Monotone keys on even runs.
    for (std::size_t Step = 0; Step < 3000; ++Step) {
      const std::string Where = "; run " + std::to_string(Run) + ", step " +
                                std::to_string(Step) +
                                ", replay: RPROSA_FUZZ_SEED=" +
                                std::to_string(Base);
      const std::uint64_t K =
          Run % 2 ? Rng.nextInRange(0, Range) : Next + Rng.nextInRange(0, 8);
      switch (Rng.nextInRange(0, 4)) {
      case 0:
      case 1: { // Insert (or find) and set the value.
        auto [H, New] = T.insert(K);
        ASSERT_EQ(New, !M.count(K)) << Where;
        if (New) {
          ASSERT_EQ(T[H], 0u) << "a reused slot keeps an old value" << Where;
        }
        T[H] = Step;
        M[K].Value = Step;
        Next = std::max(Next, K + 1);
        break;
      }
      case 2: { // Erase the key or the oldest entry.
        const std::uint64_t E = M.empty() || Rng.nextBernoulli(1, 2)
                                    ? K
                                    : M.begin()->first;
        auto H = T.find(E);
        ASSERT_EQ(H != T.None, M.count(E) == 1) << Where;
        if (H != T.None) {
          T.erase(H);
          M.erase(E);
        }
        break;
      }
      case 3: { // Order, re-key or unorder an entry.
        auto H = T.find(K);
        if (H == T.None)
          break;
        if (Rng.nextBernoulli(1, 4)) {
          T.unorder(H);
          M[K].Ord.reset();
        } else {
          const std::uint64_t Ord = Rng.nextInRange(0, 100);
          T.order(H, Ord);
          M[K].Ord = Ord;
        }
        break;
      }
      default: { // Visit the ordered entries below a bound.
        const std::uint64_t Bound = Rng.nextInRange(0, 101);
        std::multiset<std::uint64_t> Got, Want;
        T.visitBelow(Bound, [&](auto H) { Got.insert(T.key(H)); });
        for (const auto &[Key, E] : M)
          if (E.Ord && *E.Ord < Bound)
            Want.insert(Key);
        ASSERT_EQ(Got, Want) << "bound " << Bound << Where;
        break;
      }
      }
      if (Step % 16 == 0 || M.size() < 64)
        expectSame(T, M, Where);
    }
    expectSame(T, M, "; run " + std::to_string(Run));
    T.clear();
    EXPECT_TRUE(T.empty());
    EXPECT_EQ(T.find(0), T.None);
  }
}
