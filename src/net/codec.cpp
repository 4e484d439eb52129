#include "net/codec.hpp"

#include "net/wire.hpp"
#include "util/hash.hpp"

namespace tribvote::net {

namespace {

void put_vote_entry(WireWriter& w, const vote::VoteEntry& v) {
  w.u32(v.moderator);
  w.i8(static_cast<std::int8_t>(v.opinion));
  w.i64(v.cast_at);
}

bool get_vote_entry(WireReader& r, vote::VoteEntry& v) {
  v.moderator = r.u32();
  const std::int8_t opinion = r.i8();
  v.cast_at = r.i64();
  if (opinion < -1 || opinion > 1) return false;
  v.opinion = static_cast<Opinion>(opinion);
  return r.ok();
}

void put_signature(WireWriter& w, const crypto::Signature& sig) {
  w.u64(sig.e);
  w.u64(sig.s);
}

void get_signature(WireReader& r, crypto::Signature& sig) {
  sig.e = r.u64();
  sig.s = r.u64();
}

}  // namespace

std::vector<std::uint8_t> encode_hello(const HelloMessage& m) {
  std::vector<std::uint8_t> p;
  WireWriter w(p);
  w.u32(m.peer);
  w.u64(m.key.y);
  return p;
}

bool decode_hello(const std::vector<std::uint8_t>& p, HelloMessage& out) {
  WireReader r(p.data(), p.size());
  out.peer = r.u32();
  out.key.y = r.u64();
  return r.complete();
}

std::vector<std::uint8_t> encode_encounter_begin(const EncounterBegin& m) {
  std::vector<std::uint8_t> p;
  WireWriter w(p);
  w.u8(m.kind);
  w.i64(m.time);
  return p;
}

bool decode_encounter_begin(const std::vector<std::uint8_t>& p,
                            EncounterBegin& out) {
  WireReader r(p.data(), p.size());
  out.kind = r.u8();
  out.time = r.i64();
  if (out.kind != kEncounterVote && out.kind != kEncounterModeration) {
    return false;
  }
  return r.complete();
}

std::vector<std::uint8_t> encode_vote_full(const vote::VoteListMessage& m) {
  std::vector<std::uint8_t> p;
  WireWriter w(p);
  w.u32(m.voter);
  w.u64(m.key.y);
  w.u32(static_cast<std::uint32_t>(m.votes.size()));
  for (const vote::VoteEntry& v : m.votes) put_vote_entry(w, v);
  put_signature(w, m.signature);
  return p;
}

bool decode_vote_full(const std::vector<std::uint8_t>& p,
                      vote::VoteListMessage& out) {
  WireReader r(p.data(), p.size());
  out.voter = r.u32();
  out.key.y = r.u64();
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxVoteEntries) return false;
  out.votes.resize(count);
  for (vote::VoteEntry& v : out.votes) {
    if (!get_vote_entry(r, v)) return false;
  }
  get_signature(r, out.signature);
  return r.complete();
}

std::vector<std::uint8_t> encode_vox_topk(const vote::RankedList& list) {
  std::vector<std::uint8_t> p;
  WireWriter w(p);
  w.u32(static_cast<std::uint32_t>(list.size()));
  for (const ModeratorId m : list) w.u32(m);
  return p;
}

bool decode_vox_topk(const std::vector<std::uint8_t>& p,
                     vote::RankedList& out) {
  WireReader r(p.data(), p.size());
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxTopK) return false;
  out.resize(count);
  for (ModeratorId& m : out) m = r.u32();
  return r.complete();
}

std::vector<std::uint8_t> encode_mod_batch(
    const std::vector<moderation::Moderation>& items) {
  std::vector<std::uint8_t> p;
  WireWriter w(p);
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const moderation::Moderation& m : items) {
    w.u32(m.moderator);
    w.u64(m.moderator_key.y);
    w.u64(m.infohash);
    w.i64(m.created);
    w.u16(static_cast<std::uint16_t>(m.description.size()));
    w.str(m.description);
    put_signature(w, m.signature);
  }
  return p;
}

bool decode_mod_batch(const std::vector<std::uint8_t>& p,
                      std::vector<moderation::Moderation>& out) {
  WireReader r(p.data(), p.size());
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxModItems) return false;
  out.clear();
  out.resize(count);
  for (moderation::Moderation& m : out) {
    m.moderator = r.u32();
    m.moderator_key.y = r.u64();
    m.infohash = r.u64();
    m.created = r.i64();
    const std::uint16_t desc_len = r.u16();
    if (!r.ok() || desc_len > kMaxDescriptionBytes) return false;
    r.str(m.description, desc_len);
    get_signature(r, m.signature);
  }
  return r.complete();
}

std::uint64_t descriptor_digest(const PeerDescriptor& d) {
  return util::digest_fields({d.peer, d.key.y, d.ip, d.port,
                              static_cast<std::uint64_t>(d.heartbeat)});
}

std::vector<std::uint8_t> encode_peer_exchange(const PeerExchangeMessage& m) {
  std::vector<std::uint8_t> p;
  WireWriter w(p);
  w.u8(m.reply_requested ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(m.descriptors.size()));
  for (const PeerDescriptor& d : m.descriptors) {
    w.u32(d.peer);
    w.u64(d.key.y);
    w.u32(d.ip);
    w.u16(d.port);
    w.i64(d.heartbeat);
    put_signature(w, d.signature);
  }
  return p;
}

bool decode_peer_exchange(const std::vector<std::uint8_t>& p,
                          PeerExchangeMessage& out) {
  WireReader r(p.data(), p.size());
  const std::uint8_t flags = r.u8();
  if (!r.ok() || (flags & ~std::uint8_t{1}) != 0) return false;  // rsv bits
  out.reply_requested = (flags & 1) != 0;
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxPeerDescriptors) return false;
  out.descriptors.resize(count);
  for (PeerDescriptor& d : out.descriptors) {
    d.peer = r.u32();
    d.key.y = r.u64();
    d.ip = r.u32();
    d.port = r.u16();
    d.heartbeat = r.i64();
    get_signature(r, d.signature);
  }
  return r.complete();
}

std::uint64_t codec_abi_digest() {
  // Every constant that pins a byte position or a limit. Reordering,
  // resizing or re-coding any field must change this value.
  std::uint64_t h = util::digest_fields(
      {kWireVersion, kHeaderSize, kMaxPayload, kMagic0, kMagic1});
  h = util::hash_combine(
      h, util::digest_fields(
             {static_cast<std::uint64_t>(FrameType::kHello),
              static_cast<std::uint64_t>(FrameType::kEncounterBegin),
              static_cast<std::uint64_t>(FrameType::kEncounterEnd),
              static_cast<std::uint64_t>(FrameType::kBye),
              static_cast<std::uint64_t>(FrameType::kVoteFull),
              static_cast<std::uint64_t>(FrameType::kVoxRequest),
              static_cast<std::uint64_t>(FrameType::kVoxTopK),
              static_cast<std::uint64_t>(FrameType::kModBatch),
              static_cast<std::uint64_t>(FrameType::kPeerExchange)}));
  // Record layouts, as byte sizes: vote entry (u32+i8+i64 = 13), signature
  // (u64+u64 = 16), hello (u32+u64 = 12), encounter begin (u8+i64 = 9),
  // peer descriptor (u32+u64+u32+u16+i64+sig = 42).
  h = util::hash_combine(h, util::digest_fields({13, 16, 12, 9, 42}));
  h = util::hash_combine(
      h, util::digest_fields({kMaxVoteEntries, kMaxTopK, kMaxModItems,
                              kMaxDescriptionBytes, kMaxPeerDescriptors}));
  h = util::hash_combine(
      h, util::digest_fields({kEncounterVote, kEncounterModeration}));
  return h;
}

}  // namespace tribvote::net
