#include "vote/gossip.hpp"

#include "vote/agent.hpp"

namespace tribvote::vote {

std::size_t wire_size(const VoteListMessage& msg) {
  return kFrameHeaderBytes + kSignatureBytes +
         msg.votes.size() * kVoteEntryBytes;
}

void damage_message(VoteListMessage& msg, WireFault fault,
                    std::uint64_t salt) {
  switch (fault) {
    case WireFault::kNone:
      return;
    case WireFault::kTruncated:
      if (msg.votes.empty()) {
        msg.signature.s ^= 1;  // nothing to cut — clip the trailer instead
      } else {
        msg.votes.resize(msg.votes.size() / 2);
      }
      return;
    case WireFault::kCorrupted:
      msg.signature.s ^= std::uint64_t{1} << (salt & 63);
      return;
  }
}

}  // namespace tribvote::vote
