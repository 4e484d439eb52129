#include "bt/bitfield.hpp"

#include <gtest/gtest.h>

namespace tribvote::bt {
namespace {

TEST(Bitfield, StartsEmpty) {
  Bitfield bf(100);
  EXPECT_EQ(bf.size(), 100u);
  EXPECT_EQ(bf.count(), 0u);
  EXPECT_TRUE(bf.none());
  EXPECT_FALSE(bf.all());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(bf.test(i));
}

TEST(Bitfield, SetAndReset) {
  Bitfield bf(70);
  bf.set(0);
  bf.set(63);
  bf.set(64);
  bf.set(69);
  EXPECT_EQ(bf.count(), 4u);
  EXPECT_TRUE(bf.test(63));
  EXPECT_TRUE(bf.test(64));
  bf.reset(63);
  EXPECT_FALSE(bf.test(63));
  EXPECT_EQ(bf.count(), 3u);
}

TEST(Bitfield, SetAllRespectsPadding) {
  for (std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 700u}) {
    Bitfield bf(n);
    bf.set_all();
    EXPECT_EQ(bf.count(), n) << "n=" << n;
    EXPECT_TRUE(bf.all());
  }
}

TEST(Bitfield, ZeroSizeIsAll) {
  Bitfield bf(0);
  EXPECT_TRUE(bf.all());  // vacuous
  bf.set_all();
  EXPECT_EQ(bf.count(), 0u);
}

TEST(Bitfield, HasPieceNotIn) {
  Bitfield a(130), b(130);
  EXPECT_FALSE(a.has_piece_not_in(b));  // both empty
  a.set(5);
  EXPECT_TRUE(a.has_piece_not_in(b));
  EXPECT_FALSE(b.has_piece_not_in(a));
  b.set(5);
  EXPECT_FALSE(a.has_piece_not_in(b));
  a.set(128);  // second word
  EXPECT_TRUE(a.has_piece_not_in(b));
  b.set_all();
  EXPECT_FALSE(a.has_piece_not_in(b));
  EXPECT_TRUE(b.has_piece_not_in(a));
}

TEST(Bitfield, SeedNeverInterestedInSeed) {
  Bitfield seed1(50), seed2(50);
  seed1.set_all();
  seed2.set_all();
  EXPECT_FALSE(seed1.has_piece_not_in(seed2));
}

TEST(Bitfield, SetIsIdempotentForCount) {
  Bitfield bf(10);
  bf.set(3);
  bf.set(3);
  EXPECT_EQ(bf.count(), 1u);
}

// count() is a running tally, not a popcount: it must move only on a real
// bit change, and agree with a recount of the words.
TEST(Bitfield, RunningCountTracksOnlyRealChanges) {
  const auto recount = [](const Bitfield& bf) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < bf.size(); ++i) total += bf.test(i) ? 1 : 0;
    return total;
  };
  Bitfield bf(130);
  bf.set(64);
  bf.set(64);  // re-setting a set bit
  EXPECT_EQ(bf.count(), 1u);
  bf.reset(5);  // resetting a clear bit
  EXPECT_EQ(bf.count(), 1u);
  bf.reset(64);
  bf.reset(64);
  EXPECT_EQ(bf.count(), 0u);
  EXPECT_TRUE(bf.none());

  bf.set(3);
  bf.set_all();  // 130 = 2 * 64 + 2: a padded final word
  EXPECT_EQ(bf.count(), 130u);
  EXPECT_EQ(recount(bf), 130u);
  EXPECT_TRUE(bf.all());
  EXPECT_EQ(bf.word_count(), 3u);
  EXPECT_EQ(bf.word(2), 0b11u);  // padding bits stay clear
  bf.set(129);
  EXPECT_EQ(bf.count(), 130u);
  bf.reset(129);
  EXPECT_EQ(bf.count(), 129u);
  EXPECT_FALSE(bf.all());
  EXPECT_EQ(recount(bf), 129u);
}

}  // namespace
}  // namespace tribvote::bt
