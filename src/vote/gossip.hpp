// Wire-level helpers for BallotBox vote-list legs (§V-A): the simulation's
// byte-size model and deterministic transit damage.
//
// Every leg ships one signed full vote list. One Schnorr signature covers
// the whole list, so any in-transit damage is rejected wholesale: a leg
// with a payload fault never merges anything.
//
// This header is sim-agnostic: vote/ must not depend on sim/, so transit
// damage is expressed as vote::WireFault; the runner maps its fault-plane
// verdicts onto it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tribvote::vote {

struct VoteListMessage;  // agent.hpp

/// In-transit damage applied to a vote-list frame (mirrors
/// sim::PayloadFault without a sim/ dependency).
enum class WireFault : std::uint8_t {
  kNone,
  kTruncated,  ///< frame cut short in transit
  kCorrupted,  ///< bit damage
};

// ---- wire-size model (bytes) ----------------------------------------------
// Simulation-grade accounting mirroring the ledger's size model: fixed
// per-frame header plus fixed-size records. A vote entry carries
// (moderator:8, opinion:1, cast_at:7→8) = 16 B.

inline constexpr std::size_t kFrameHeaderBytes = 32;   ///< ids + key + kind
inline constexpr std::size_t kSignatureBytes = 16;     ///< Schnorr (e, s)
inline constexpr std::size_t kVoteEntryBytes = 16;

[[nodiscard]] std::size_t wire_size(const VoteListMessage& msg);

/// Deterministic, salt-driven fault application. Damage guarantees
/// rejection: a truncated or corrupted message fails its signature.
void damage_message(VoteListMessage& msg, WireFault fault, std::uint64_t salt);

}  // namespace tribvote::vote
