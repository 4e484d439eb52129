#include "bt/choker.hpp"

#include <algorithm>

namespace tribvote::bt {

void Choker::select(std::span<ChokeCandidate> candidates,
                    std::vector<PeerId>& unchoked, util::Rng& rng) {
  unchoked.clear();
  if (candidates.empty()) {
    optimistic_target_ = kInvalidPeer;
    return;
  }

  // Regular slots: best reciprocators first; deterministic tie-break by id.
  std::sort(candidates.begin(), candidates.end(),
            [](const ChokeCandidate& a, const ChokeCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.peer < b.peer;
            });
  const std::size_t regular =
      std::min<std::size_t>(config_.regular_slots, candidates.size());
  for (std::size_t i = 0; i < regular; ++i) {
    unchoked.push_back(candidates[i].peer);
  }

  if (config_.optimistic_slots == 0) return;

  // Optimistic slot: keep the current target while it is still a candidate
  // outside the regular set; rotate every `optimistic_period` rounds.
  const std::span<const ChokeCandidate> rest = candidates.subspan(regular);
  const bool target_valid =
      optimistic_target_ != kInvalidPeer &&
      std::any_of(rest.begin(), rest.end(), [this](const ChokeCandidate& c) {
        return c.peer == optimistic_target_;
      });
  if (!target_valid || ++rounds_since_rotation_ >= config_.optimistic_period) {
    optimistic_target_ = rest.empty()
                             ? kInvalidPeer
                             : rest[rng.next_below(rest.size())].peer;
    rounds_since_rotation_ = 0;
  }
  if (optimistic_target_ != kInvalidPeer) {
    unchoked.push_back(optimistic_target_);
  }
}

}  // namespace tribvote::bt
