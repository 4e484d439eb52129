#include "bt/piece_picker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <utility>
#include <vector>

namespace tribvote::bt {
namespace {

class PiecePickerTest : public ::testing::Test {
 protected:
  util::Rng rng_{1};
};

TEST_F(PiecePickerTest, AvailabilityBookkeeping) {
  PiecePicker picker(4);
  picker.add_have(0);
  picker.add_have(0);
  picker.add_have(2);
  EXPECT_EQ(picker.availability(0), 2u);
  EXPECT_EQ(picker.availability(1), 0u);
  EXPECT_EQ(picker.availability(2), 1u);
  picker.remove_have(0);
  EXPECT_EQ(picker.availability(0), 1u);
}

TEST_F(PiecePickerTest, BitfieldBulkOps) {
  PiecePicker picker(6);
  Bitfield bf(6);
  bf.set(1);
  bf.set(4);
  picker.add_bitfield(bf);
  picker.add_bitfield(bf);
  EXPECT_EQ(picker.availability(1), 2u);
  EXPECT_EQ(picker.availability(4), 2u);
  EXPECT_EQ(picker.availability(0), 0u);
  picker.remove_bitfield(bf);
  EXPECT_EQ(picker.availability(1), 1u);
}

TEST_F(PiecePickerTest, PicksRarestEligible) {
  PiecePicker picker(3);
  // Piece 0: avail 3, piece 1: avail 1, piece 2: avail 2.
  for (int i = 0; i < 3; ++i) picker.add_have(0);
  picker.add_have(1);
  picker.add_have(2);
  picker.add_have(2);

  Bitfield uploader(3);
  uploader.set_all();
  Bitfield downloader(3);  // lacks everything
  Bitfield in_flight(3);
  EXPECT_EQ(picker.pick(uploader, downloader, in_flight, rng_), 1u);
}

TEST_F(PiecePickerTest, SkipsPiecesDownloaderHas) {
  PiecePicker picker(2);
  picker.add_have(0);  // availability: piece0=1, piece1=0
  Bitfield uploader(2);
  uploader.set_all();
  Bitfield downloader(2);
  downloader.set(1);
  Bitfield in_flight(2);
  // Piece 1 has availability 0 (rarer) but downloader already has it.
  EXPECT_EQ(picker.pick(uploader, downloader, in_flight, rng_), 0u);
}

TEST_F(PiecePickerTest, SkipsInFlightPieces) {
  PiecePicker picker(2);
  Bitfield uploader(2);
  uploader.set_all();
  Bitfield downloader(2);
  Bitfield in_flight(2);
  in_flight.set(0);
  EXPECT_EQ(picker.pick(uploader, downloader, in_flight, rng_), 1u);
}

TEST_F(PiecePickerTest, SkipsPiecesUploaderLacks) {
  PiecePicker picker(3);
  Bitfield uploader(3);
  uploader.set(2);
  Bitfield downloader(3);
  Bitfield in_flight(3);
  EXPECT_EQ(picker.pick(uploader, downloader, in_flight, rng_), 2u);
}

TEST_F(PiecePickerTest, ReturnsNoPieceWhenNothingEligible) {
  PiecePicker picker(2);
  Bitfield uploader(2);
  Bitfield downloader(2);
  Bitfield in_flight(2);
  EXPECT_EQ(picker.pick(uploader, downloader, in_flight, rng_), kNoPiece);

  uploader.set(0);
  downloader.set(0);
  EXPECT_EQ(picker.pick(uploader, downloader, in_flight, rng_), kNoPiece);
}

TEST_F(PiecePickerTest, TieBreakIsRoughlyUniform) {
  PiecePicker picker(4);  // all availability 0: four-way tie
  Bitfield uploader(4);
  uploader.set_all();
  Bitfield downloader(4);
  Bitfield in_flight(4);
  std::map<std::size_t, int> histogram;
  for (int i = 0; i < 4000; ++i) {
    ++histogram[picker.pick(uploader, downloader, in_flight, rng_)];
  }
  ASSERT_EQ(histogram.size(), 4u);
  for (const auto& [piece, count] : histogram) {
    EXPECT_NEAR(count, 1000, 150) << "piece " << piece;
  }
}

// Property: the picked piece always satisfies the eligibility invariant and
// rarest-first optimality, across random configurations.
class PickerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PickerPropertyTest, PickedPieceIsAlwaysEligibleAndRarest) {
  util::Rng rng(GetParam());
  const std::size_t n = 1 + rng.next_below(64);
  PiecePicker picker(n);
  Bitfield uploader(n), downloader(n);
  Bitfield in_flight(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto avail = rng.next_below(5);
    for (std::uint64_t a = 0; a < avail; ++a) picker.add_have(i);
    if (rng.next_bool(0.6)) uploader.set(i);
    if (rng.next_bool(0.3)) downloader.set(i);
    if (rng.next_bool(0.2)) in_flight.set(i);
  }
  const std::size_t pick = picker.pick(uploader, downloader, in_flight, rng);
  if (pick == kNoPiece) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_FALSE(uploader.test(i) && !downloader.test(i) &&
                   !in_flight.test(i))
          << "eligible piece " << i << " was not picked";
    }
  } else {
    EXPECT_TRUE(uploader.test(pick));
    EXPECT_FALSE(downloader.test(pick));
    EXPECT_FALSE(in_flight.test(pick));
    for (std::size_t i = 0; i < n; ++i) {
      if (uploader.test(i) && !downloader.test(i) && !in_flight.test(i)) {
        EXPECT_LE(picker.availability(pick), picker.availability(i));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, PickerPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 40));

// ---- word-parallel scan vs the scalar reference ---------------------------
//
// The bit-by-bit pick/pick_window the word-parallel scan replaced, copied
// verbatim except that availability is read through the public accessor.
// The rewrite must pick the same piece *and* make the same next_below draws
// in the same order, or every downstream golden shifts.

std::size_t scalar_pick(const PiecePicker& picker,
                        const Bitfield& uploader_has,
                        const Bitfield& downloader_has,
                        const std::vector<bool>& in_flight, util::Rng& rng) {
  std::uint32_t best_avail = std::numeric_limits<std::uint32_t>::max();
  std::size_t best = kNoPiece;
  std::uint64_t ties = 0;
  for (std::size_t p = 0; p < picker.piece_count(); ++p) {
    if (!uploader_has.test(p) || downloader_has.test(p) || in_flight[p]) {
      continue;
    }
    if (picker.availability(p) < best_avail) {
      best_avail = picker.availability(p);
      best = p;
      ties = 1;
    } else if (picker.availability(p) == best_avail) {
      ++ties;
      if (rng.next_below(ties) == 0) best = p;
    }
  }
  return best;
}

std::size_t scalar_pick_window(const PiecePicker& picker,
                               const Bitfield& uploader_has,
                               const Bitfield& downloader_has,
                               const std::vector<bool>& in_flight,
                               std::size_t lo, std::size_t hi,
                               util::Rng& rng) {
  hi = std::min(hi, picker.piece_count());
  std::uint32_t best_avail = std::numeric_limits<std::uint32_t>::max();
  std::size_t best = kNoPiece;
  std::uint64_t ties = 0;
  for (std::size_t p = lo; p < hi; ++p) {
    if (!uploader_has.test(p) || downloader_has.test(p) || in_flight[p]) {
      continue;
    }
    if (picker.availability(p) < best_avail) {
      best_avail = picker.availability(p);
      best = p;
      ties = 1;
    } else if (picker.availability(p) == best_avail) {
      ++ties;
      if (rng.next_below(ties) == 0) best = p;
    }
  }
  return best;
}

/// One random picker state, held in both in-flight representations.
struct DiffCase {
  explicit DiffCase(std::size_t n, util::Rng& build)
      : picker(n), up(n), down(n), flight(n), flight_ref(n, false) {
    // Densities vary per case so sparse words, full words and empty words
    // all occur; availability in {0, 1, 2} makes ties the common case.
    const double p_up = build.next_double(0.05, 1.0);
    const double p_down = build.next_double(0.0, 0.7);
    const double p_flight = build.next_double(0.0, 0.4);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint64_t a = build.next_below(3); a > 0; --a) {
        picker.add_have(i);
      }
      if (build.next_bool(p_up)) up.set(i);
      if (build.next_bool(p_down)) down.set(i);
      if (build.next_bool(p_flight)) mark_in_flight(i);
    }
  }
  void mark_in_flight(std::size_t i) {
    flight.set(i);
    flight_ref[i] = true;
  }

  PiecePicker picker;
  Bitfield up, down, flight;
  std::vector<bool> flight_ref;
};

TEST(PickerDifferential, PickMatchesScalarReference) {
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u, 700u}) {
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
      util::Rng build(seed * 7919 + n);
      DiffCase c(n, build);
      util::Rng a(seed);
      util::Rng b = a;
      // Drain the link: every pick goes in flight, as the swarm does,
      // until nothing eligible is left.
      for (;;) {
        const std::size_t fast = c.picker.pick(c.up, c.down, c.flight, a);
        const std::size_t slow =
            scalar_pick(c.picker, c.up, c.down, c.flight_ref, b);
        ASSERT_EQ(fast, slow) << "n=" << n << " seed=" << seed;
        if (fast == kNoPiece) break;
        c.mark_in_flight(fast);
      }
      // Both consumed the generator identically.
      EXPECT_EQ(a(), b()) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(PickerDifferential, PickWindowMatchesScalarReference) {
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u, 700u}) {
    // Window edges on and off word boundaries, empty and clamped windows,
    // and a few random ones.
    std::vector<std::pair<std::size_t, std::size_t>> windows = {
        {0, n},       {0, 64},      {64, 128},   {63, 65},   {1, n - 1},
        {0, 1},       {n - 1, n},   {5, 5},      {n, n + 8}, {n / 2, n + 10},
        {128, 192},   {127, 129},   {65, 640},   {3, 61},    {640, 700}};
    util::Rng edges(n);
    for (int i = 0; i < 10; ++i) {
      const std::size_t lo = edges.next_below(n + 1);
      windows.emplace_back(lo, lo + edges.next_below(n + 1));
    }
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      util::Rng build(seed * 104729 + n);
      DiffCase c(n, build);
      for (const auto& [lo, hi] : windows) {
        util::Rng a(seed * 31 + lo * 7 + hi);
        util::Rng b = a;
        const std::size_t fast =
            c.picker.pick_window(c.up, c.down, c.flight, lo, hi, a);
        const std::size_t slow =
            scalar_pick_window(c.picker, c.up, c.down, c.flight_ref, lo, hi,
                               b);
        EXPECT_EQ(fast, slow)
            << "n=" << n << " seed=" << seed << " [" << lo << "," << hi << ")";
        EXPECT_EQ(a(), b())
            << "n=" << n << " seed=" << seed << " [" << lo << "," << hi << ")";
      }
    }
  }
}

}  // namespace
}  // namespace tribvote::bt
