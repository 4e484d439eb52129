#include "vote/agent.hpp"

#include <cassert>

#include "util/hash.hpp"
#include "vote/encounter.hpp"

namespace tribvote::vote {

std::uint64_t VoteListMessage::digest() const {
  std::uint64_t h = util::digest_fields({voter, key.y, votes.size()});
  for (const VoteEntry& v : votes) {
    h = util::hash_combine(
        h, util::digest_fields(
               {v.moderator,
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(opinion_value(v.opinion))),
                static_cast<std::uint64_t>(v.cast_at)}));
  }
  return h;
}

VoteAgent::VoteAgent(PeerId self, const crypto::KeyPair& keys,
                     VoteConfig config, ExperienceCb experienced,
                     util::Rng rng)
    : self_(self),
      keys_(&keys),
      config_(config),
      experienced_(std::move(experienced)),
      rng_(rng),
      box_(config.b_max),
      observed_(config.b_max),
      vox_(config.v_max, config.k),
      nonce_rng_(rng.derive(0x6e6f6e6365ULL)) {  // "nonce"
  assert(experienced_);
  assert(config_.b_min <= config_.b_max);
}

void VoteAgent::cast_vote(ModeratorId moderator, Opinion opinion, Time now) {
  votes_.cast(moderator, opinion, now);
}

bool VoteAgent::selection_deterministic() const {
  // select_for_message consumes rng_ only when the list exceeds the cap
  // under a policy with a random share; everything else is a pure function
  // of the vote list, so its selected-and-signed message may be memoized.
  return votes_.size() <= config_.max_votes_per_message ||
         config_.selection == SelectionPolicy::kRecentOnly;
}

VoteListMessage VoteAgent::outgoing_votes(Time now) {
  ++gossip_stats_.builds;
  const bool cacheable = config_.gossip_cache && selection_deterministic();
  if (cacheable && cache_valid_ && cache_version_ == votes_.version() &&
      cache_policy_ == config_.selection &&
      cache_max_votes_ == config_.max_votes_per_message) {
    ++gossip_stats_.cache_hits;
    (void)now;
    return cache_msg_;
  }
  VoteListMessage msg;
  msg.voter = self_;
  msg.key = keys_->pub;
  msg.votes = votes_.select_for_message(config_.max_votes_per_message, rng_,
                                        config_.selection);
  msg.signature = crypto::sign(*keys_, msg.digest(), nonce_rng_);
  ++gossip_stats_.signatures;
  if (cacheable) {
    cache_valid_ = true;
    cache_version_ = votes_.version();
    cache_policy_ = config_.selection;
    cache_max_votes_ = config_.max_votes_per_message;
    cache_msg_ = msg;
  }
  (void)now;
  return msg;
}

ReceiveResult VoteAgent::receive_votes(const VoteListMessage& message,
                                       Time now) {
  if (message.voter == self_) return ReceiveResult::kSelfMessage;
  if (!crypto::verify(message.key, message.digest(), message.signature)) {
    return ReceiveResult::kBadSignature;  // forged or corrupted
  }
  if (message.votes.empty()) return ReceiveResult::kEmpty;
  // Every authentic message feeds the observed-dispersion signal, even
  // when the experience function rejects its votes.
  observed_.merge(message.voter, message.votes, now);
  if (!experienced_(message.voter)) {
    return ReceiveResult::kInexperienced;  // E_i(j) = false
  }
  box_.merge(message.voter, message.votes, now);
  return ReceiveResult::kAccepted;
}

std::map<ModeratorId, Tally> VoteAgent::augmented_tally() const {
  std::map<ModeratorId, Tally> tally = box_.tally();
  if (known_moderators) {
    for (const ModeratorId m : known_moderators()) {
      tally.try_emplace(m, Tally{});
    }
  }
  return tally;
}

RankedList VoteAgent::answer_topk() {
  if (bootstrapping()) return {};  // "null" — never relay second-hand lists
  return rank_top_k(augmented_tally(), config_.method, config_.k);
}

void VoteAgent::receive_topk(RankedList list) {
  if (list.empty()) return;
  vox_.add_list(std::move(list));
}

RankedList VoteAgent::current_ranking() const {
  if (box_.unique_voters() >= config_.b_min) {
    return rank(augmented_tally(), config_.method);
  }
  return vox_.merged_ranking();
}

std::uint64_t VoteAgent::state_digest() const {
  std::uint64_t h = util::digest_fields(
      {self_, keys_->pub.y, votes_.version(), votes_.entries().size()});
  for (const VoteEntry& v : votes_.entries()) {
    h = util::hash_combine(
        h, util::digest_fields(
               {v.moderator,
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(opinion_value(v.opinion))),
                static_cast<std::uint64_t>(v.cast_at)}));
  }
  h = util::hash_combine(h, box_.digest());
  h = util::hash_combine(h, observed_.digest());
  h = util::hash_combine(h, vox_.digest());
  return h;
}

std::optional<ModeratorId> VoteAgent::top_moderator() const {
  const RankedList ranking = current_ranking();
  if (ranking.empty()) return std::nullopt;
  return ranking.front();
}

GossipLegOutcome gossip_send(VoteAgent& sender, VoteAgent& receiver, Time now,
                             WireFault fault, std::uint64_t salt) {
  GossipLegOutcome leg;
  const GossipStats before = sender.gossip_stats();
  VoteListMessage msg = sender.outgoing_votes(now);
  leg.list_size = msg.votes.size();
  damage_message(msg, fault, salt);
  leg.bytes = wire_size(msg);
  leg.result = receiver.receive_votes(msg, now);
  const GossipStats& after = sender.gossip_stats();
  leg.cache_hit = after.cache_hits > before.cache_hits;
  leg.signatures =
      static_cast<std::uint32_t>(after.signatures - before.signatures);
  return leg;
}

void vote_exchange(VoteAgent& initiator, VoteAgent& responder, Time now) {
  (void)vote_encounter(initiator, responder, now);
}

}  // namespace tribvote::vote
