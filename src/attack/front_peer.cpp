#include "attack/front_peer.hpp"

namespace tribvote::attack {

FrontPeerBarterAgent::FrontPeerBarterAgent(PeerId self,
                                           bartercast::BarterConfig config,
                                           std::vector<PeerId> clique,
                                           double fake_mb)
    : bartercast::BarterAgent(self, config),
      clique_(std::move(clique)),
      fake_mb_(fake_mb) {}

std::vector<bartercast::BarterRecord> FrontPeerBarterAgent::outgoing_records(
    const bt::TransferLedger& ledger, Time now) const {
  // Genuine records first (a mole behaves normally toward honest peers to
  // carry the fake flow outward)...
  std::vector<bartercast::BarterRecord> records =
      bartercast::BarterAgent::outgoing_records(ledger, now);
  // ...then the fabricated intra-clique uploads. They involve the sender,
  // so receivers cannot reject them on adjacency grounds.
  for (const PeerId other : clique_) {
    if (other == self_) continue;
    records.push_back(bartercast::BarterRecord{self_, other, fake_mb_, now});
    records.push_back(bartercast::BarterRecord{other, self_, fake_mb_, now});
  }
  return records;
}

}  // namespace tribvote::attack
