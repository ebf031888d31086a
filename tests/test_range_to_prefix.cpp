// range_to_prefixes (ruleset/lowering): the maximal-block decomposition
// every prefix-expanding engine stores.
#include "ruleset/lowering.h"

#include <gtest/gtest.h>

#include "util/prng.h"

namespace rfipc::ruleset {
namespace {

/// Checks the decomposition is exact: blocks are disjoint, in order,
/// and their union is exactly [lo, hi].
void check_exact(std::uint32_t lo, std::uint32_t hi, unsigned w) {
  const auto blocks = range_to_prefixes(lo, hi, w);
  ASSERT_FALSE(blocks.empty());
  std::uint64_t cursor = lo;
  for (const auto& b : blocks) {
    const unsigned host_bits = w - b.length;
    const std::uint64_t span = 1ull << host_bits;
    EXPECT_EQ(b.value, cursor) << "blocks must tile left to right";
    EXPECT_EQ(b.value % span, 0u) << "block must be aligned to its size";
    cursor += span;
  }
  EXPECT_EQ(cursor, static_cast<std::uint64_t>(hi) + 1);
}

TEST(RangeToPrefix, FullRangeIsOneWildcardBlock) {
  const auto b = range_to_prefixes(0, 0xffff, 16);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].length, 0);
}

TEST(RangeToPrefix, SingletonIsFullLength) {
  const auto b = range_to_prefixes(80, 80, 16);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].value, 80u);
  EXPECT_EQ(b[0].length, 16);
}

TEST(RangeToPrefix, AlignedPowerOfTwo) {
  // [1024, 2047] is exactly the prefix 000001**********.
  const auto b = range_to_prefixes(1024, 2047, 16);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].value, 1024u);
  EXPECT_EQ(b[0].length, 6);
}

TEST(RangeToPrefix, ClassicWorstCase) {
  // [1, 2^w - 2] needs 2(w-1) blocks — the paper's worst case.
  for (const unsigned w : {4u, 8u, 16u}) {
    const std::uint32_t hi = (1u << w) - 2;
    const auto blocks = range_to_prefixes(1, hi, w);
    EXPECT_EQ(blocks.size(), worst_case_prefixes(w)) << "w=" << w;
    check_exact(1, hi, w);
  }
}

TEST(RangeToPrefix, EphemeralAndWellKnownRanges) {
  check_exact(1024, 65535, 16);
  check_exact(0, 1023, 16);
  EXPECT_EQ(range_to_prefixes(1024, 65535, 16).size(), 6u);  // 1024.. = 6 blocks
  EXPECT_EQ(range_to_prefixes(0, 1023, 16).size(), 1u);      // one /6 prefix
}

TEST(RangeToPrefix, Width32FullRange) {
  const auto b = range_to_prefixes(0, 0xffffffffu, 32);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].length, 0);
}

TEST(RangeToPrefix, Width32HighEnd) {
  check_exact(0xfffffffe, 0xffffffff, 32);
  check_exact(0x80000000, 0xffffffff, 32);
}

TEST(RangeToPrefix, RejectsBadInput) {
  EXPECT_THROW(range_to_prefixes(2, 1, 16), std::invalid_argument);
  EXPECT_THROW(range_to_prefixes(0, 1 << 16, 16), std::invalid_argument);
  EXPECT_THROW(range_to_prefixes(0, 0, 0), std::invalid_argument);
  EXPECT_THROW(range_to_prefixes(0, 0, 33), std::invalid_argument);
}

TEST(RangeToPrefix, RangeIsPrefixDetection) {
  EXPECT_TRUE(range_is_prefix(0, 0xffff, 16));
  EXPECT_TRUE(range_is_prefix(80, 80, 16));
  EXPECT_TRUE(range_is_prefix(1024, 2047, 16));
  EXPECT_FALSE(range_is_prefix(1, 65534, 16));
  EXPECT_FALSE(range_is_prefix(100, 200, 16));
}

// Property test: random ranges decompose exactly and never exceed the
// worst-case bound; membership agrees with the original interval.
TEST(RangeToPrefixProperty, RandomRangesExact) {
  util::Xoshiro256 rng(31);
  for (int iter = 0; iter < 500; ++iter) {
    const unsigned w = 16;
    auto a = static_cast<std::uint32_t>(rng.below(1u << w));
    auto b = static_cast<std::uint32_t>(rng.below(1u << w));
    if (a > b) std::swap(a, b);
    const auto blocks = range_to_prefixes(a, b, w);
    EXPECT_LE(blocks.size(), worst_case_prefixes(w));
    check_exact(a, b, w);

    // Spot-check membership: a value is covered by some block iff it is
    // inside [a, b].
    for (int probe = 0; probe < 10; ++probe) {
      const auto v = static_cast<std::uint32_t>(rng.below(1u << w));
      bool covered = false;
      for (const auto& blk : blocks) {
        const unsigned host = w - blk.length;
        if ((v >> host) == (blk.value >> host)) covered = true;
      }
      EXPECT_EQ(covered, v >= a && v <= b) << "v=" << v;
    }
  }
}

}  // namespace
}  // namespace rfipc::ruleset
