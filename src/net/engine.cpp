#include "net/engine.hpp"

#include <utility>

namespace tribvote::net {

ExchangeEngine::ExchangeEngine(vote::VoteAgent& vote,
                               moderation::ModerationCastAgent* mod,
                               std::uint8_t initiator_channel)
    : vote_(&vote), mod_(mod), init_channel_(initiator_channel) {}

void ExchangeEngine::push(std::vector<Frame>& out, FrameType type,
                          std::uint8_t channel,
                          std::vector<std::uint8_t> payload) {
  Frame f;
  f.type = type;
  f.channel = channel;
  f.payload = std::move(payload);
  out.push_back(std::move(f));
}

bool ExchangeEngine::fail() {
  ++counters_.protocol_errors;
  return false;
}

void ExchangeEngine::note_receive(vote::ReceiveResult result) {
  switch (result) {
    case vote::ReceiveResult::kAccepted:
      ++counters_.votes_accepted;
      break;
    case vote::ReceiveResult::kBadSignature:
      ++counters_.votes_rejected;
      break;
    case vote::ReceiveResult::kInexperienced:
      ++counters_.votes_inexperienced;
      break;
    case vote::ReceiveResult::kSelfMessage:
    case vote::ReceiveResult::kEmpty:
      break;
  }
}

void ExchangeEngine::send_votes(Time now, std::uint8_t channel,
                                std::vector<Frame>& out) {
  push(out, FrameType::kVoteFull, channel,
       encode_vote_full(vote_->outgoing_votes(now)));
  ++counters_.open_full;
}

bool ExchangeEngine::receive_votes(const Frame& frame, Time now) {
  vote::VoteListMessage msg;
  if (!decode_vote_full(frame.payload, msg)) return false;
  note_receive(vote_->receive_votes(msg, now));
  return true;
}

bool ExchangeEngine::begin_vote_encounter(Time now, std::vector<Frame>& out) {
  if (!has_peer_ || i_state_ != IState::kIdle) return false;
  i_now_ = now;
  i_enc_ = vote::Encounter::begin(*vote_, now);
  push(out, FrameType::kEncounterBegin, init_channel_,
       encode_encounter_begin({kEncounterVote, now}));
  send_votes(now, init_channel_, out);
  i_state_ = IState::kAwaitReverse;
  return true;
}

bool ExchangeEngine::begin_moderation_encounter(Time now,
                                                std::vector<Frame>& out) {
  if (!has_peer_ || mod_ == nullptr || i_state_ != IState::kIdle) return false;
  i_now_ = now;
  push(out, FrameType::kEncounterBegin, init_channel_,
       encode_encounter_begin({kEncounterModeration, now}));
  push(out, FrameType::kModBatch, init_channel_,
       encode_mod_batch(mod_->outgoing()));
  i_state_ = IState::kAwaitModBatch;
  return true;
}

void ExchangeEngine::initiator_wrap(std::vector<Frame>& out) {
  // The shared encounter core makes the VP decision after both gossip
  // legs, exactly like vote::vote_encounter: a leg that lifts the box past
  // B_min suppresses the request on the wire too.
  if (i_enc_.vox_pending()) {
    push(out, FrameType::kVoxRequest, init_channel_, {});
    i_state_ = IState::kAwaitVox;
    return;
  }
  push(out, FrameType::kEncounterEnd, init_channel_, {});
  i_state_ = IState::kIdle;
  ++counters_.encounters_completed;
}

bool ExchangeEngine::on_frame(const Frame& frame, std::vector<Frame>& out) {
  return frame.channel == init_channel_ ? on_initiator_frame(frame, out)
                                        : on_responder_frame(frame, out);
}

bool ExchangeEngine::on_initiator_frame(const Frame& frame,
                                        std::vector<Frame>& out) {
  const std::uint8_t ch = init_channel_;
  switch (i_state_) {
    case IState::kIdle:
      return fail();  // nothing of ours in flight on this channel

    case IState::kAwaitReverse:
      if (frame.type != FrameType::kVoteFull ||
          !receive_votes(frame, i_now_)) {
        return fail();
      }
      initiator_wrap(out);
      return true;

    case IState::kAwaitVox:
      if (frame.type != FrameType::kVoxTopK) return fail();
      {
        vote::RankedList list;
        if (!decode_vox_topk(frame.payload, list)) return fail();
        i_enc_.finish_vox(std::move(list));
        if (i_enc_.finish().vox_topk == 0) {
          ++counters_.vox_null;
        } else {
          ++counters_.vox_answered;
        }
        push(out, FrameType::kEncounterEnd, ch, {});
        i_state_ = IState::kIdle;
        ++counters_.encounters_completed;
      }
      return true;

    case IState::kAwaitModBatch:
      if (frame.type != FrameType::kModBatch || mod_ == nullptr) return fail();
      {
        std::vector<moderation::Moderation> items;
        if (!decode_mod_batch(frame.payload, items)) return fail();
        counters_.mod_rejected += mod_->receive(items, i_now_).bad_signature;
        push(out, FrameType::kEncounterEnd, ch, {});
        i_state_ = IState::kIdle;
        ++counters_.mod_completed;
      }
      return true;
  }
  return fail();
}

bool ExchangeEngine::on_responder_frame(const Frame& frame,
                                        std::vector<Frame>& out) {
  const std::uint8_t ch = frame.channel;  // the peer-initiator's channel
  switch (r_state_) {
    case RState::kIdle:
      if (frame.type != FrameType::kEncounterBegin) return fail();
      {
        EncounterBegin begin;
        if (!decode_encounter_begin(frame.payload, begin)) return fail();
        if (begin_hook_) begin_hook_(begin.kind, begin.time);
        r_now_ = begin.time;
        if (begin.kind == kEncounterVote) {
          r_state_ = RState::kAwaitOpen;
        } else {
          if (mod_ == nullptr) return fail();
          r_state_ = RState::kAwaitModBatch;
        }
      }
      return true;

    case RState::kAwaitOpen:
      if (frame.type != FrameType::kVoteFull ||
          !receive_votes(frame, r_now_)) {
        return fail();
      }
      send_votes(r_now_, ch, out);
      r_state_ = RState::kAwaitWrap;
      return true;

    case RState::kAwaitWrap:
      if (frame.type == FrameType::kVoxRequest) {
        if (!frame.payload.empty()) return fail();
        // An empty answer is the protocol's "null" (Fig. 3c) — sent
        // explicitly so the initiator never waits on silence.
        push(out, FrameType::kVoxTopK, ch,
             encode_vox_topk(vote::Encounter::answer_vox(*vote_)));
        return true;
      }
      if (frame.type == FrameType::kEncounterEnd) {
        if (!frame.payload.empty()) return fail();
        r_state_ = RState::kIdle;
        ++counters_.encounters_served;
        return true;
      }
      return fail();

    case RState::kAwaitModBatch:
      if (frame.type != FrameType::kModBatch || mod_ == nullptr) return fail();
      {
        std::vector<moderation::Moderation> items;
        if (!decode_mod_batch(frame.payload, items)) return fail();
        // The shared responder half (moderation::respond_exchange):
        // extract-before-merge in Fig. 1 order, identical to the sim path.
        moderation::ModerationCastAgent::ReceiveStats merged;
        const std::vector<moderation::Moderation> from_us =
            moderation::respond_exchange(*mod_, items, r_now_, &merged);
        counters_.mod_rejected += merged.bad_signature;
        push(out, FrameType::kModBatch, ch, encode_mod_batch(from_us));
        r_state_ = RState::kAwaitModEnd;
      }
      return true;

    case RState::kAwaitModEnd:
      if (frame.type != FrameType::kEncounterEnd || !frame.payload.empty()) {
        return fail();
      }
      r_state_ = RState::kIdle;
      ++counters_.mod_served;
      return true;
  }
  return fail();
}

}  // namespace tribvote::net
