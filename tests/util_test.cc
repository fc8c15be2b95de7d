// Unit tests for src/util: Status/Result, hashing, flat tables, strings,
// RNG.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "util/flat_table.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace bytebrain {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing topic");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing topic");
  EXPECT_EQ(s.ToString(), "NotFound: missing topic");
}

TEST(StatusTest, AllConstructorsProduceMatchingPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::IOError("disk"); };
  auto outer = [&]() -> Status {
    BB_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsIOError());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(HashTest, DeterministicAcrossCalls) {
  EXPECT_EQ(HashToken("connection"), HashToken("connection"));
  EXPECT_NE(HashToken("connection"), HashToken("Connection"));
}

TEST(HashTest, EmptyTokenHashesStably) {
  EXPECT_EQ(HashToken(""), HashToken(std::string_view()));
}

TEST(HashTest, NoCollisionsOnRealisticVocabulary) {
  // §4.1.4: collision probability must be negligible. Hash 200k distinct
  // synthetic tokens and require zero collisions (expected ~1e-9).
  std::unordered_set<uint64_t> seen;
  for (int i = 0; i < 200000; ++i) {
    seen.insert(HashToken("token_" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 200000u);
}

TEST(HashTest, SequenceHashIsOrderSensitive) {
  uint64_t a[] = {HashToken("x"), HashToken("y")};
  uint64_t b[] = {HashToken("y"), HashToken("x")};
  EXPECT_NE(HashTokenSequence(std::begin(a), std::end(a)),
            HashTokenSequence(std::begin(b), std::end(b)));
}

TEST(FlatTableTest, HandsOutFirstSeenOrdinals) {
  FlatOrdinalTable<> table;
  using Got = std::pair<uint32_t, bool>;
  EXPECT_EQ(table.Insert(100), Got(0, true));
  EXPECT_EQ(table.Insert(5), Got(1, true));
  EXPECT_EQ(table.Insert(100), Got(0, false));
  EXPECT_EQ(table.Insert(0), Got(2, true));
  EXPECT_EQ(table.Insert(5), Got(1, false));
  EXPECT_EQ(table.size(), 3u);
  table.Reset(0);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Insert(5), Got(0, true));
  // Presized inserts hand out the same ordinals without ever growing.
  table.Reset(3);
  const size_t capacity = table.capacity();
  EXPECT_EQ(table.InsertPresized(100), Got(0, true));
  EXPECT_EQ(table.InsertPresized(5), Got(1, true));
  EXPECT_EQ(table.InsertPresized(100), Got(0, false));
  EXPECT_EQ(table.InsertPresized(0), Got(2, true));
  EXPECT_EQ(table.capacity(), capacity);
}

TEST(FlatTableTest, GrowsAcrossRehashesKeepingOrdinals) {
  // Consecutive integers (the ordinal encoder's tokens) and mixed hashes,
  // from the minimum capacity up through many doublings.
  for (bool mixed : {false, true}) {
    auto key = [mixed](uint64_t i) { return mixed ? Mix64(i) : i; };
    FlatOrdinalTable<> table;
    table.Reset(0);
    std::set<size_t> capacities = {table.capacity()};
    constexpr uint32_t kKeys = 5000;
    for (uint32_t i = 0; i < kKeys; ++i) {
      EXPECT_EQ(table.Insert(key(i)), std::make_pair(i, true)) << i;
      EXPECT_GE(table.capacity(), 2 * table.size());
      capacities.insert(table.capacity());
    }
    EXPECT_GE(capacities.size(), 8u);  // 16 -> 16384
    for (uint32_t i = 0; i < kKeys; ++i) {
      EXPECT_EQ(table.Insert(key(i)), std::make_pair(i, false)) << i;
    }
    EXPECT_EQ(table.size(), kKeys);
  }
}

TEST(FlatTableTest, GenerationStampWrapForgetsEveryKey) {
  // An 8-bit stamp comes back to the same value after 255 generations. A
  // slot written then and never touched since must not read as live.
  for (int resets = 250; resets <= 260; ++resets) {
    FlatOrdinalTable<uint8_t> table;
    table.Insert(7);
    table.Insert(9);
    for (int r = 0; r < resets; ++r) table.Reset(0);
    EXPECT_EQ(table.Insert(9), std::make_pair(0u, true)) << resets;
    EXPECT_EQ(table.Insert(7), std::make_pair(1u, true)) << resets;
  }
  // Each round inserts 40 keys (growing the table, one generation per
  // doubling, so wraps also land inside a rehash), half of them left
  // over from the round before: all must read as new.
  FlatOrdinalTable<uint8_t> table;
  for (uint64_t round = 0; round < 400; ++round) {
    table.Reset(0);
    for (uint32_t j = 0; j < 40; ++j) {
      ASSERT_EQ(table.Insert(round * 20 + j), std::make_pair(j, true))
          << "round " << round << " key " << j;
    }
    for (uint32_t j = 0; j < 40; ++j) {
      ASSERT_EQ(table.Insert(round * 20 + j), std::make_pair(j, false))
          << "round " << round << " key " << j;
    }
  }
}

TEST(DedupIndexTest, SameKeyChainComparesItems) {
  // Different sequences under one forced key (a 64-bit hash collision,
  // which real token sequences practically never produce) must chain as
  // distinct items and each still be found again by comparison.
  using Seq = std::vector<uint64_t>;
  std::vector<Seq> items;
  DedupIndex index;
  index.Reset(0);
  auto add = [&](uint64_t key, const Seq& seq) {
    const auto found = index.FindOrAdd(
        key, [&](uint32_t item) { return items[item] == seq; });
    if (found.second) {
      EXPECT_EQ(found.first, items.size());
      items.push_back(seq);
    }
    return found;
  };
  constexpr uint64_t kForced = 42;
  using Got = std::pair<uint32_t, bool>;
  EXPECT_EQ(add(kForced, {1, 2}), Got(0, true));
  EXPECT_EQ(add(kForced, {3, 4}), Got(1, true));
  EXPECT_EQ(add(kForced, {1, 2}), Got(0, false));
  EXPECT_EQ(add(7, {1, 2}), Got(2, true));  // same items, other key
  EXPECT_EQ(add(kForced, {5}), Got(3, true));
  EXPECT_EQ(add(kForced, {3, 4}), Got(1, false));
  EXPECT_EQ(add(kForced, {5}), Got(3, false));
  EXPECT_EQ(add(7, {1, 2}), Got(2, false));
  EXPECT_EQ(index.size(), 4u);
  index.Reset(0);
  items.clear();
  EXPECT_EQ(add(kForced, {3, 4}), Got(0, true));
}

TEST(RngTest, SeededStreamsAreReproducible) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(StringTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringTest, JoinRoundTrips) {
  std::vector<std::string> v = {"a", "b", "c"};
  EXPECT_EQ(JoinStrings(v, " "), "a b c");
  EXPECT_EQ(JoinStrings(std::vector<std::string>{}, " "), "");
}

TEST(StringTest, Trim) {
  EXPECT_EQ(TrimString("  x \t"), "x");
  EXPECT_EQ(TrimString(""), "");
  EXPECT_EQ(TrimString(" \n "), "");
}

TEST(StringTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("blk_123", "blk_"));
  EXPECT_FALSE(StartsWith("bl", "blk_"));
  EXPECT_TRUE(EndsWith("file.log", ".log"));
  EXPECT_FALSE(EndsWith("g", ".log"));
}

TEST(StringTest, NumericDetection) {
  EXPECT_TRUE(IsAllDigits("0123"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_TRUE(LooksNumeric("-12.5"));
  EXPECT_TRUE(LooksNumeric("0xdeadBEEF"));
  EXPECT_FALSE(LooksNumeric("12.5.6"));
  EXPECT_FALSE(LooksNumeric("x12"));
}

TEST(StringTest, Formatting) {
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KB");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(12), "12");
}

}  // namespace
}  // namespace bytebrain
