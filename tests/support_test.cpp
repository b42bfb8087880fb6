//===- tests/support_test.cpp - Unit tests for the support library --------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/check.h"
#include "support/fields.h"
#include "support/interval_set.h"
#include "support/rng.h"
#include "support/table.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <utility>
#include <vector>

using namespace rprosa;

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I < 16; ++I)
    AnyDifferent |= A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(SplitMix64, RangeIsInclusive) {
  SplitMix64 R(7);
  std::set<std::uint64_t> Seen;
  for (int I = 0; I < 1000; ++I) {
    std::uint64_t V = R.nextInRange(3, 5);
    EXPECT_GE(V, 3u);
    EXPECT_LE(V, 5u);
    Seen.insert(V);
  }
  // All three values should appear over 1000 draws.
  EXPECT_EQ(Seen.size(), 3u);
}

TEST(SplitMix64, DegenerateRange) {
  SplitMix64 R(7);
  EXPECT_EQ(R.nextInRange(9, 9), 9u);
}

TEST(SplitMix64, BernoulliExtremes) {
  SplitMix64 R(7);
  for (int I = 0; I < 50; ++I) {
    EXPECT_TRUE(R.nextBernoulli(1, 1));
    EXPECT_FALSE(R.nextBernoulli(0, 1));
  }
}

TEST(SplitMix64, ForkIsIndependent) {
  SplitMix64 A(5);
  SplitMix64 B = A.fork();
  // The fork must not replay the parent's stream.
  EXPECT_NE(A.next(), B.next());
}

TEST(FieldCursor, SplitsLikeTheFindFormulation) {
  // The formulation the inline cursor replaced, as the oracle: each
  // field as (offset, length) into the line.
  using Spans = std::vector<std::pair<std::size_t, std::size_t>>;
  auto Reference = [](std::string_view Line) {
    constexpr std::string_view Separators = " \t\r";
    Spans Out;
    for (std::size_t At = 0;;) {
      std::size_t B = Line.find_first_not_of(Separators, At);
      if (B == std::string_view::npos)
        return Out;
      std::size_t E = Line.find_first_of(Separators, B);
      E = E == std::string_view::npos ? Line.size() : E;
      Out.emplace_back(B, E - B);
      At = E;
    }
  };
  // Half the bytes are drawn from all 256 values, half from the three
  // separators, so fields and separator runs both come in every length.
  SplitMix64 Rng(testutil::fuzzSeed(2026) ^ 0xf1e1d5);
  for (int I = 0; I < 100000; ++I) {
    std::string Line;
    for (std::uint64_t N = Rng.nextInRange(0, 24); N > 0; --N)
      Line += Rng.nextBernoulli(1, 2)
                  ? static_cast<char>(Rng.nextInRange(0, 255))
                  : " \t\r"[Rng.nextInRange(0, 2)];
    FieldCursor C(Line);
    Spans Got;
    for (std::string_view F = C.next(); !F.empty(); F = C.next())
      Got.emplace_back(static_cast<std::size_t>(F.data() - Line.data()),
                       F.size());
    ASSERT_EQ(Got, Reference(Line)) << "line " << I << " of seed "
                                    << testutil::fuzzSeed(2026);
    EXPECT_TRUE(C.next().empty());
  }
}

TEST(CheckResult, DefaultPasses) {
  CheckResult R;
  EXPECT_TRUE(R.passed());
  EXPECT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R.describe(), "");
}

TEST(CheckResult, FailureCarriesMessage) {
  CheckResult R = CheckResult::failure("boom");
  EXPECT_FALSE(R.passed());
  ASSERT_EQ(R.failures().size(), 1u);
  EXPECT_EQ(R.failures()[0], "boom");
  EXPECT_EQ(R.describe(), "boom\n");
}

TEST(CheckResult, MergeAccumulates) {
  CheckResult A = CheckResult::failure("one");
  A.noteCheck(3);
  CheckResult B = CheckResult::failure("two");
  B.noteCheck(2);
  A.merge(B);
  EXPECT_EQ(A.failures().size(), 2u);
  EXPECT_EQ(A.checksPerformed(), 5u);
}

TEST(TableWriter, AsciiAlignsColumns) {
  TableWriter T({"a", "long-header"});
  T.addRow({"xxxx", "1"});
  std::string Out = T.renderAscii();
  // Header, separator, one row.
  EXPECT_NE(Out.find("a     long-header"), std::string::npos);
  EXPECT_NE(Out.find("xxxx  1"), std::string::npos);
}

TEST(TableWriter, CsvQuotesSpecials) {
  TableWriter T({"k", "v"});
  T.addRow({"a,b", "say \"hi\""});
  std::string Out = T.renderCsv();
  EXPECT_NE(Out.find("\"a,b\""), std::string::npos);
  EXPECT_NE(Out.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Format, WithCommas) {
  EXPECT_EQ(formatWithCommas(0), "0");
  EXPECT_EQ(formatWithCommas(999), "999");
  EXPECT_EQ(formatWithCommas(1000), "1,000");
  EXPECT_EQ(formatWithCommas(1234567), "1,234,567");
  // Regression: sizes with remainder 2 used to underflow the grouping.
  EXPECT_EQ(formatWithCommas(10290), "10,290");
  EXPECT_EQ(formatWithCommas(12), "12");
}

TEST(Format, TicksAsNs) {
  EXPECT_EQ(formatTicksAsNs(5), "5ns");
  EXPECT_EQ(formatTicksAsNs(1500), "1.50us");
  EXPECT_EQ(formatTicksAsNs(2500000), "2.50ms");
  EXPECT_EQ(formatTicksAsNs(3000000000ull), "3.000s");
}

TEST(Format, Ratio) {
  EXPECT_EQ(formatRatio(3, 2), "1.50");
  EXPECT_EQ(formatRatio(1, 0), "inf");
}

TEST(IdIntervalSet, BoundaryValuesAndAdjacentMerges) {
  IdIntervalSet S;
  // Both domain endpoints: no wraparound in the touch tests.
  EXPECT_TRUE(S.insert(0));
  EXPECT_TRUE(S.insert(UINT64_MAX));
  EXPECT_FALSE(S.insert(0));
  EXPECT_FALSE(S.insert(UINT64_MAX));
  EXPECT_TRUE(S.contains(0));
  EXPECT_TRUE(S.contains(UINT64_MAX));
  EXPECT_FALSE(S.contains(1));
  EXPECT_FALSE(S.contains(UINT64_MAX - 1));
  EXPECT_EQ(S.size(), 2u);
  EXPECT_EQ(S.fragments(), 2u);

  // Fill the gap 1..2 out of order: 0..2 must collapse to one fragment
  // (insert(2) touches only above, insert(1) bridges both sides).
  EXPECT_TRUE(S.insert(2));
  EXPECT_EQ(S.fragments(), 3u);
  EXPECT_TRUE(S.insert(1));
  EXPECT_EQ(S.fragments(), 2u);
  EXPECT_EQ(S.size(), 4u);
  EXPECT_TRUE(S.contains(1));
  EXPECT_TRUE(S.contains(2));

  // Growing downward from the top endpoint merges there too.
  EXPECT_TRUE(S.insert(UINT64_MAX - 1));
  EXPECT_EQ(S.fragments(), 2u);
  EXPECT_TRUE(S.contains(UINT64_MAX - 1));
}

TEST(IdIntervalSet, DifferentialFuzzAgainstStdSet) {
  // The set's contract is "exactly std::set, O(fragments) memory" —
  // checked here by running both side by side over adversarial
  // distributions: dense clusters (adjacent merges from both sides),
  // the 0 and UINT64_MAX boundaries, and uniform spray.
  const std::uint64_t Base = testutil::fuzzSeed(0x1d5e7f);
  for (std::uint64_t Round = 0; Round < 8; ++Round) {
    const std::uint64_t Seed = Base + Round;
    SplitMix64 Rng(Seed);
    IdIntervalSet S;
    std::set<std::uint64_t> Ref;
    for (int I = 0; I < 2000; ++I) {
      std::uint64_t V;
      switch (Rng.nextInRange(0, 3)) {
      case 0: // Dense low cluster: lots of adjacency and duplicates.
        V = Rng.nextInRange(0, 64);
        break;
      case 1: // Dense cluster at the top of the domain.
        V = UINT64_MAX - Rng.nextInRange(0, 64);
        break;
      case 2: // Mid-range cluster around a moving anchor.
        V = (Round + 1) * 1000003 + Rng.nextInRange(0, 16);
        break;
      default: // Uniform spray.
        V = Rng.next();
        break;
      }
      bool Inserted = S.insert(V);
      bool RefInserted = Ref.insert(V).second;
      ASSERT_EQ(Inserted, RefInserted)
          << "insert(" << V << ") diverged; replay with RPROSA_FUZZ_SEED="
          << Base << " (round " << Round << ", derived seed " << Seed
          << ")";
      // Membership probes around the inserted value (the merge edges).
      for (std::uint64_t P : {V, V > 0 ? V - 1 : V,
                              V < UINT64_MAX ? V + 1 : V}) {
        ASSERT_EQ(S.contains(P), Ref.count(P) != 0)
            << "contains(" << P << ") diverged; replay with "
            << "RPROSA_FUZZ_SEED=" << Base << " (round " << Round << ")";
      }
      ASSERT_EQ(S.size(), Ref.size())
          << "size diverged; replay with RPROSA_FUZZ_SEED=" << Base
          << " (round " << Round << ")";
      ASSERT_LE(S.fragments(), Ref.size());
    }
    // Fragment count must match the ground-truth run-length encoding.
    std::size_t Runs = 0;
    std::uint64_t Prev = 0;
    bool Have = false;
    for (std::uint64_t V : Ref) {
      if (!Have || V != Prev + 1)
        ++Runs;
      Prev = V;
      Have = true;
    }
    EXPECT_EQ(S.fragments(), Runs)
        << "fragments diverged; replay with RPROSA_FUZZ_SEED=" << Base
        << " (round " << Round << ")";
  }
}
