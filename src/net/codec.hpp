// Binary payload codecs for every wire message (PROTOCOL.md §4). Encoders
// produce exactly the layouts the spec fixes; decoders are strict — a
// payload that is short, carries trailing bytes, an out-of-range opinion,
// or a count above its limit is rejected, and the caller treats the frame
// as malformed (connection-fatal, §5).
//
// Decoding performs *syntactic* validation only. Authenticity and content
// integrity stay where the protocol already puts them: the Schnorr
// signature inside VoteListMessage/Moderation — a decoded-but-forged
// message is rejected by the same vote::ReceiveResult::kBadSignature
// accounting the simulator's fault plane uses.
#pragma once

#include <cstdint>
#include <vector>

#include "moderation/moderation.hpp"
#include "net/frame.hpp"
#include "vote/agent.hpp"
#include "vote/ranking.hpp"

namespace tribvote::net {

// Hard per-message limits (PROTOCOL.md §4). Generous against every config
// the repo ships (max_votes_per_message defaults to 50) while bounding what
// a malicious peer can make a node allocate.
inline constexpr std::size_t kMaxVoteEntries = 4096;
inline constexpr std::size_t kMaxTopK = 64;
inline constexpr std::size_t kMaxModItems = 1024;
inline constexpr std::size_t kMaxDescriptionBytes = 4096;
inline constexpr std::size_t kMaxPeerDescriptors = 64;

// ENC_BEGIN encounter kinds (PROTOCOL.md §4.2).
inline constexpr std::uint8_t kEncounterVote = 0;
inline constexpr std::uint8_t kEncounterModeration = 1;

struct HelloMessage {
  PeerId peer = kInvalidPeer;
  crypto::PublicKey key;
};

struct EncounterBegin {
  std::uint8_t kind = kEncounterVote;
  Time time = 0;
};

/// One Newscast view entry as it travels the wire (PROTOCOL.md §8): who the
/// peer is, where to dial it, and how fresh the owner's stamp is. Signed by
/// the *descriptor owner* over descriptor_digest(), so relayed entries
/// cannot be retargeted or aged in transit by the relay. (This binds
/// contents to the claimed key, not the key to an identity — Sybil
/// registration is out of scope, as in the paper.)
struct PeerDescriptor {
  PeerId peer = kInvalidPeer;
  crypto::PublicKey key;
  std::uint32_t ip = 0;       ///< IPv4, host byte order (0x7f000001 = lo)
  std::uint16_t port = 0;
  Time heartbeat = 0;         ///< owner's clock at signing (freshness rank)
  crypto::Signature signature;
};

/// PEER_EXCHANGE payload: the sender's current view slice plus whether it
/// expects the symmetric reply half of the Newscast shuffle.
struct PeerExchangeMessage {
  bool reply_requested = false;
  std::vector<PeerDescriptor> descriptors;
};

/// The 64-bit digest a descriptor's Schnorr signature covers: every field
/// except the signature itself.
[[nodiscard]] std::uint64_t descriptor_digest(const PeerDescriptor& d);

// ---- encoders (payload bytes only; framing in frame.hpp) -------------------

[[nodiscard]] std::vector<std::uint8_t> encode_hello(const HelloMessage& m);
[[nodiscard]] std::vector<std::uint8_t> encode_encounter_begin(
    const EncounterBegin& m);
[[nodiscard]] std::vector<std::uint8_t> encode_vote_full(
    const vote::VoteListMessage& m);
[[nodiscard]] std::vector<std::uint8_t> encode_vox_topk(
    const vote::RankedList& list);
[[nodiscard]] std::vector<std::uint8_t> encode_mod_batch(
    const std::vector<moderation::Moderation>& items);
[[nodiscard]] std::vector<std::uint8_t> encode_peer_exchange(
    const PeerExchangeMessage& m);

// ---- decoders (strict; false = malformed) ----------------------------------

[[nodiscard]] bool decode_hello(const std::vector<std::uint8_t>& p,
                                HelloMessage& out);
[[nodiscard]] bool decode_encounter_begin(const std::vector<std::uint8_t>& p,
                                          EncounterBegin& out);
[[nodiscard]] bool decode_vote_full(const std::vector<std::uint8_t>& p,
                                    vote::VoteListMessage& out);
[[nodiscard]] bool decode_vox_topk(const std::vector<std::uint8_t>& p,
                                   vote::RankedList& out);
[[nodiscard]] bool decode_mod_batch(const std::vector<std::uint8_t>& p,
                                    std::vector<moderation::Moderation>& out);
/// Syntactic only — signature verification of each descriptor is the
/// receiver's (NodeService), item-wise like mod-batch items.
[[nodiscard]] bool decode_peer_exchange(const std::vector<std::uint8_t>& p,
                                        PeerExchangeMessage& out);

/// Digest folding every layout-determining constant of the wire format:
/// version, header size, type codes, record sizes and message limits. A
/// codec change moves this value; PROTOCOL.md embeds it in a machine-
/// readable line and tests/net_codec_test.cpp compares the two — the
/// doc-freshness gate that keeps spec and implementation in lockstep.
[[nodiscard]] std::uint64_t codec_abi_digest();

}  // namespace tribvote::net
