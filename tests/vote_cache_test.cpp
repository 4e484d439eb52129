// Vote-history signature cache and the vote hot path.
//
// Covers: vote-list version semantics, cache hit/invalidation/off, cache
// on vs off state identity, the partial-selection rewrite against a
// reference full sort, the incremental BallotBox tally against an O(n)
// recompute, and wire-fault behaviour of a vote-list leg (a damaged
// message rejects wholesale, nothing merged).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "crypto/schnorr.hpp"
#include "vote/agent.hpp"
#include "vote/ballot_box.hpp"
#include "vote/gossip.hpp"
#include "vote/vote_list.hpp"

namespace tribvote::vote {
namespace {

// ---- LocalVoteList::version ------------------------------------------------

TEST(VoteListVersion, BumpsOnContentChangeOnly) {
  LocalVoteList list;
  EXPECT_EQ(list.version(), 0u);
  list.cast(1, Opinion::kPositive, 10);
  EXPECT_EQ(list.version(), 1u);
  list.cast(1, Opinion::kPositive, 10);  // identical re-cast: no-op
  EXPECT_EQ(list.version(), 1u);
  list.cast(1, Opinion::kPositive, 20);  // fresher timestamp: content change
  EXPECT_EQ(list.version(), 2u);
  list.cast(1, Opinion::kNegative, 20);  // opinion flip: content change
  EXPECT_EQ(list.version(), 3u);
  list.cast(2, Opinion::kPositive, 20);  // new moderator
  EXPECT_EQ(list.version(), 4u);
}

// ---- partial selection vs reference full sort ------------------------------

/// The pre-optimization implementation, verbatim: full pointer sort, then
/// recency prefix + sampled tail.
std::vector<VoteEntry> reference_select(const LocalVoteList& list,
                                        std::size_t max_votes, util::Rng& rng,
                                        SelectionPolicy policy) {
  const auto& entries = list.entries();
  std::vector<VoteEntry> result;
  if (entries.empty() || max_votes == 0) return result;
  if (entries.size() <= max_votes) return entries;
  if (policy == SelectionPolicy::kRandomOnly) {
    for (std::size_t p : rng.sample_indices(entries.size(), max_votes)) {
      result.push_back(entries[p]);
    }
    return result;
  }
  std::vector<const VoteEntry*> sorted;
  for (const auto& e : entries) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const VoteEntry* a, const VoteEntry* b) {
              if (a->cast_at != b->cast_at) return a->cast_at > b->cast_at;
              return a->moderator < b->moderator;
            });
  const std::size_t recent = policy == SelectionPolicy::kRecentOnly
                                 ? max_votes
                                 : (max_votes + 1) / 2;
  for (std::size_t i = 0; i < recent; ++i) result.push_back(*sorted[i]);
  const std::size_t rest = sorted.size() - recent;
  const std::size_t random_take = std::min(max_votes - recent, rest);
  for (std::size_t p : rng.sample_indices(rest, random_take)) {
    result.push_back(*sorted[recent + p]);
  }
  return result;
}

bool same_selection(const std::vector<VoteEntry>& a,
                    const std::vector<VoteEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].moderator != b[i].moderator || a[i].opinion != b[i].opinion ||
        a[i].cast_at != b[i].cast_at) {
      return false;
    }
  }
  return true;
}

TEST(PartialSelection, ByteIdenticalToFullSortAcrossPoliciesAndSeeds) {
  // Duplicate cast times on purpose: the comparator's moderator tiebreak
  // must keep the partial selection's draw order identical to the sort's.
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2009ULL}) {
    util::Rng build(seed);
    LocalVoteList list;
    for (ModeratorId m = 0; m < 200; ++m) {
      list.cast(m,
                build.next_bool(0.5) ? Opinion::kPositive
                                     : Opinion::kNegative,
                static_cast<Time>(build.next_below(40)));
    }
    for (const auto policy :
         {SelectionPolicy::kRecencyRandom, SelectionPolicy::kRecentOnly,
          SelectionPolicy::kRandomOnly}) {
      for (const std::size_t max_votes : {1u, 2u, 13u, 50u, 199u, 200u}) {
        util::Rng a(seed * 31 + max_votes);
        util::Rng b = a;
        const auto fast = list.select_for_message(max_votes, a, policy);
        const auto slow = reference_select(list, max_votes, b, policy);
        EXPECT_TRUE(same_selection(fast, slow))
            << "policy=" << static_cast<int>(policy)
            << " max_votes=" << max_votes << " seed=" << seed;
        // Both consumed the generator identically.
        EXPECT_EQ(a(), b());
      }
    }
  }
}

// ---- incremental tally -----------------------------------------------------

TEST(IncrementalTally, MatchesRecomputeUnderMergeEvictPurge) {
  util::Rng rng(5);
  BallotBox box(40);  // small capacity: eviction fires constantly
  for (int step = 0; step < 500; ++step) {
    const PeerId voter = static_cast<PeerId>(rng.next_below(12));
    std::vector<VoteEntry> votes;
    const std::size_t n = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < n; ++i) {
      votes.push_back(VoteEntry{static_cast<ModeratorId>(rng.next_below(15)),
                                rng.next_bool(0.5) ? Opinion::kPositive
                                                   : Opinion::kNegative,
                                static_cast<Time>(step)});
    }
    box.merge(voter, votes, static_cast<Time>(step));
    if (step % 97 == 96) {
      box.purge_voters(
          [&](PeerId v) { return v % 3 != static_cast<PeerId>(step % 3); });
    }
    const auto expected = box.recompute_tally();
    const auto& incremental = box.tally();
    ASSERT_EQ(incremental.size(), expected.size()) << "step " << step;
    for (const auto& [m, t] : expected) {
      const auto it = incremental.find(m);
      ASSERT_NE(it, incremental.end()) << "step " << step;
      EXPECT_EQ(it->second.positive, t.positive) << "step " << step;
      EXPECT_EQ(it->second.negative, t.negative) << "step " << step;
    }
  }
}

// ---- agent fixtures --------------------------------------------------------

struct Peer {
  crypto::KeyPair keys;
  std::unique_ptr<VoteAgent> agent;
};

Peer make_peer(PeerId id, VoteConfig config, std::uint64_t seed,
               bool experienced = true) {
  Peer p;
  util::Rng krng(seed);
  p.keys = crypto::generate_keypair(krng);
  p.agent = std::make_unique<VoteAgent>(
      id, p.keys, config, [experienced](PeerId) { return experienced; },
      util::Rng(seed * 7919 + 1));
  return p;
}

// ---- vote-history cache ----------------------------------------------------

TEST(VoteHistoryCache, SignsOncePerVersionAndInvalidatesOnCast) {
  VoteConfig config;
  Peer p = make_peer(1, config, 11);
  p.agent->cast_vote(3, Opinion::kPositive, 10);
  const auto m1 = p.agent->outgoing_votes(20);
  const auto m2 = p.agent->outgoing_votes(30);
  const auto m3 = p.agent->outgoing_votes(40);
  EXPECT_EQ(p.agent->gossip_stats().builds, 3u);
  EXPECT_EQ(p.agent->gossip_stats().signatures, 1u);
  EXPECT_EQ(p.agent->gossip_stats().cache_hits, 2u);
  EXPECT_EQ(m1.digest(), m2.digest());
  EXPECT_EQ(m2.signature, m3.signature);

  p.agent->cast_vote(4, Opinion::kNegative, 50);  // content change
  const auto m4 = p.agent->outgoing_votes(60);
  EXPECT_EQ(p.agent->gossip_stats().signatures, 2u);
  EXPECT_EQ(m4.votes.size(), 2u);
  // The cached message stays verifiable.
  EXPECT_TRUE(crypto::verify(p.keys.pub, m4.digest(), m4.signature));
}

TEST(VoteHistoryCache, OffMeansEveryCallSigns) {
  VoteConfig config;
  config.gossip_cache = false;
  Peer p = make_peer(1, config, 12);
  p.agent->cast_vote(3, Opinion::kPositive, 10);
  (void)p.agent->outgoing_votes(20);
  (void)p.agent->outgoing_votes(30);
  EXPECT_EQ(p.agent->gossip_stats().signatures, 2u);
  EXPECT_EQ(p.agent->gossip_stats().cache_hits, 0u);
}

TEST(VoteHistoryCache, BypassedWhenSelectionIsStochastic) {
  VoteConfig config;
  config.max_votes_per_message = 5;  // 10 entries below → random tail draw
  Peer p = make_peer(1, config, 13);
  for (ModeratorId m = 0; m < 10; ++m) {
    p.agent->cast_vote(m, Opinion::kPositive, static_cast<Time>(m));
  }
  (void)p.agent->outgoing_votes(20);
  (void)p.agent->outgoing_votes(30);
  // No memoization: repeated calls re-draw the random tail and re-sign.
  EXPECT_EQ(p.agent->gossip_stats().cache_hits, 0u);
  EXPECT_EQ(p.agent->gossip_stats().signatures, 2u);
}

// ---- cache on vs off -------------------------------------------------------

/// Drive `rounds` mutual exchanges between a and b via gossip_send.
void run_exchanges(Peer& a, Peer& b, int rounds, Time start) {
  for (int r = 0; r < rounds; ++r) {
    const Time now = start + static_cast<Time>(r) * 10;
    (void)gossip_send(*a.agent, *b.agent, now);
    (void)gossip_send(*b.agent, *a.agent, now);
  }
}

TEST(VoteHistoryCache, StateIdenticalWithCacheOffAndSignsLess) {
  VoteConfig on;   // gossip_cache defaults on
  VoteConfig off;
  off.gossip_cache = false;
  // Two mirrored pairs with identical seeds; only the knob differs.
  Peer a_on = make_peer(1, on, 21), b_on = make_peer(2, on, 22);
  Peer a_off = make_peer(1, off, 21), b_off = make_peer(2, off, 22);
  for (Peer* p : {&a_on, &a_off}) {
    p->agent->cast_vote(5, Opinion::kPositive, 1);
    p->agent->cast_vote(6, Opinion::kNegative, 2);
  }
  for (Peer* p : {&b_on, &b_off}) {
    p->agent->cast_vote(5, Opinion::kNegative, 3);
  }
  run_exchanges(a_on, b_on, 4, 100);
  run_exchanges(a_off, b_off, 4, 100);

  // Bit-identical ballot boxes, both directions.
  for (const auto& [pair_on, pair_off] :
       {std::pair{&a_on, &a_off}, std::pair{&b_on, &b_off}}) {
    const auto& t_on = pair_on->agent->ballot_box().tally();
    const auto t_off = pair_off->agent->ballot_box().recompute_tally();
    ASSERT_EQ(t_on.size(), t_off.size());
    for (const auto& [m, t] : t_off) {
      const auto it = t_on.find(m);
      ASSERT_NE(it, t_on.end());
      EXPECT_EQ(it->second.positive, t.positive);
      EXPECT_EQ(it->second.negative, t.negative);
    }
    EXPECT_EQ(pair_on->agent->state_digest(), pair_off->agent->state_digest());
  }
  // ...and the cached pair did strictly less signing.
  EXPECT_LT(a_on.agent->gossip_stats().signatures,
            a_off.agent->gossip_stats().signatures);
  EXPECT_GT(a_on.agent->gossip_stats().cache_hits, 0u);
}

// ---- wire faults over a vote-list leg --------------------------------------

std::size_t box_size(const Peer& p) { return p.agent->ballot_box().size(); }

TEST(GossipFaults, DamagedFullMessageRejectsWholesale) {
  VoteConfig config;
  Peer a = make_peer(1, config, 41), b = make_peer(2, config, 42);
  a.agent->cast_vote(5, Opinion::kPositive, 1);
  for (const auto fault : {WireFault::kTruncated, WireFault::kCorrupted}) {
    const auto leg = gossip_send(*a.agent, *b.agent, 10, fault, 7);
    EXPECT_EQ(leg.result, ReceiveResult::kBadSignature);
    EXPECT_EQ(box_size(b), 0u);  // nothing merged, box not poisoned
  }
}

}  // namespace
}  // namespace tribvote::vote
