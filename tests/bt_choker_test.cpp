#include "bt/choker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bt/bandwidth.hpp"

namespace tribvote::bt {
namespace {

std::vector<ChokeCandidate> make_candidates(
    std::initializer_list<std::pair<PeerId, double>> list) {
  std::vector<ChokeCandidate> out;
  for (const auto& [peer, score] : list) {
    out.push_back(ChokeCandidate{peer, score});
  }
  return out;
}

/// One unchoke round through the buffer-reusing API.
std::vector<PeerId> run_select(Choker& choker,
                               std::vector<ChokeCandidate> candidates,
                               util::Rng& rng) {
  std::vector<PeerId> unchoked{kInvalidPeer};  // stale content is cleared
  choker.select(candidates, unchoked, rng);
  return unchoked;
}

TEST(Choker, EmptyCandidates) {
  Choker choker;
  util::Rng rng(1);
  EXPECT_TRUE(run_select(choker, {}, rng).empty());
}

TEST(Choker, SelectsTopReciprocators) {
  Choker choker(ChokerConfig{2, 0, 3});
  util::Rng rng(1);
  const auto unchoked = run_select(
      choker, make_candidates({{1, 10.0}, {2, 50.0}, {3, 30.0}, {4, 5.0}}),
      rng);
  ASSERT_EQ(unchoked.size(), 2u);
  EXPECT_EQ(unchoked[0], 2u);
  EXPECT_EQ(unchoked[1], 3u);
}

TEST(Choker, TieBreaksByPeerId) {
  Choker choker(ChokerConfig{2, 0, 3});
  util::Rng rng(1);
  const auto unchoked = run_select(
      choker, make_candidates({{9, 10.0}, {3, 10.0}, {5, 10.0}}), rng);
  ASSERT_EQ(unchoked.size(), 2u);
  EXPECT_EQ(unchoked[0], 3u);
  EXPECT_EQ(unchoked[1], 5u);
}

TEST(Choker, OptimisticSlotAddsOneOutsideRegularSet) {
  Choker choker(ChokerConfig{2, 1, 3});
  util::Rng rng(1);
  const auto unchoked = run_select(
      choker, make_candidates({{1, 40.0}, {2, 30.0}, {3, 1.0}, {4, 2.0}}), rng);
  ASSERT_EQ(unchoked.size(), 3u);
  EXPECT_EQ(unchoked[0], 1u);
  EXPECT_EQ(unchoked[1], 2u);
  EXPECT_TRUE(unchoked[2] == 3u || unchoked[2] == 4u);
}

TEST(Choker, FewerCandidatesThanSlots) {
  Choker choker(ChokerConfig{3, 1, 3});
  util::Rng rng(1);
  const auto unchoked =
      run_select(choker, make_candidates({{7, 1.0}}), rng);
  ASSERT_EQ(unchoked.size(), 1u);
  EXPECT_EQ(unchoked[0], 7u);
}

TEST(Choker, OptimisticTargetIsSticky) {
  Choker choker(ChokerConfig{1, 1, 4});
  util::Rng rng(2);
  const auto candidates =
      make_candidates({{1, 100.0}, {2, 0.0}, {3, 0.0}, {4, 0.0}});
  const auto first = run_select(choker, candidates, rng);
  ASSERT_EQ(first.size(), 2u);
  const PeerId target = first[1];
  // For the next (period - 1) rounds the optimistic pick stays put.
  for (int round = 0; round < 2; ++round) {
    const auto next = run_select(choker, candidates, rng);
    ASSERT_EQ(next.size(), 2u);
    EXPECT_EQ(next[1], target) << "round " << round;
  }
}

TEST(Choker, OptimisticTargetRotatesEventually) {
  Choker choker(ChokerConfig{1, 1, 2});
  util::Rng rng(3);
  const auto candidates = make_candidates(
      {{1, 100.0}, {2, 0.0}, {3, 0.0}, {4, 0.0}, {5, 0.0}});
  std::set<PeerId> targets;
  for (int round = 0; round < 40; ++round) {
    const auto unchoked = run_select(choker, candidates, rng);
    ASSERT_EQ(unchoked.size(), 2u);
    targets.insert(unchoked[1]);
  }
  EXPECT_GT(targets.size(), 1u);  // rotation happened
}

TEST(Choker, NoOptimisticWhenAllCandidatesAreRegular) {
  Choker choker(ChokerConfig{3, 1, 3});
  util::Rng rng(4);
  const auto unchoked =
      run_select(choker, make_candidates({{1, 3.0}, {2, 2.0}, {3, 1.0}}),
                 rng);
  EXPECT_EQ(unchoked.size(), 3u);  // nothing left for the optimistic slot
}

TEST(Choker, ZeroOptimisticSlots) {
  Choker choker(ChokerConfig{2, 0, 3});
  util::Rng rng(5);
  const auto unchoked = run_select(
      choker, make_candidates({{1, 3.0}, {2, 2.0}, {3, 1.0}, {4, 0.5}}), rng);
  EXPECT_EQ(unchoked.size(), 2u);
}

TEST(Choker, NeverDuplicatesPeers) {
  Choker choker;
  util::Rng rng(6);
  for (int round = 0; round < 50; ++round) {
    const auto unchoked = run_select(
        choker,
        make_candidates(
            {{1, 5.0}, {2, 4.0}, {3, 3.0}, {4, 2.0}, {5, 1.0}, {6, 0.0}}),
        rng);
    std::set<PeerId> unique(unchoked.begin(), unchoked.end());
    EXPECT_EQ(unique.size(), unchoked.size());
  }
}

TEST(Bandwidth, SharesSplitAcrossSwarms) {
  BandwidthAllocator alloc({100.0, 50.0}, {800.0, 400.0});
  EXPECT_EQ(alloc.upload_share_bytes(0, 10.0), 0.0);  // inactive
  alloc.register_active(0);
  EXPECT_DOUBLE_EQ(alloc.upload_share_bytes(0, 10.0), 100.0 * 1024 * 10);
  alloc.register_active(0);
  EXPECT_DOUBLE_EQ(alloc.upload_share_bytes(0, 10.0),
                   100.0 * 1024 * 10 / 2);
  EXPECT_DOUBLE_EQ(alloc.download_share_bytes(0, 10.0),
                   800.0 * 1024 * 10 / 2);
  alloc.unregister_active(0);
  EXPECT_DOUBLE_EQ(alloc.upload_share_bytes(0, 10.0), 100.0 * 1024 * 10);
  EXPECT_EQ(alloc.active_swarms(1), 0u);
}

}  // namespace
}  // namespace tribvote::bt
