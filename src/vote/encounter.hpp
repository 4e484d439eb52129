// The transport-agnostic core of one active-thread vote encounter (Fig. 3).
//
// vote::Encounter is the single definition of what a faultless BallotBox +
// VoxPopuli encounter *does* to the two endpoint agents, exposed as a
// begin/finish object so every transport drives the identical per-agent
// call order while keeping its own framing in between:
//
//   * in-process callers compose it inline per pair (vote_encounter()
//     below); the simulator's fault-aware round body in core/runner.cpp
//     makes the same calls in the same order through gossip_send, with a
//     per-leg fault verdict that is all-pass when faults are off;
//   * the socket plane's ExchangeEngine (net/engine.cpp) holds one across
//     the wire round-trips of an encounter it initiates, and serves the
//     responder half through the static answer_vox().
//
// The shared object is what makes the sim-vs-socket equivalence tests
// meaningful — see DESIGN.md §13 and PROTOCOL.md §6.
#pragma once

#include "vote/agent.hpp"

namespace tribvote::vote {

/// What one faultless encounter did, for the caller's accounting. The
/// runner folds these into its probes/RunStats; library users may ignore it.
struct VoteEncounterOutcome {
  GossipLegOutcome forward;    ///< initiator → responder leg
  GossipLegOutcome reverse;    ///< responder → initiator leg
  bool vox_requested = false;  ///< initiator was bootstrapping after legs
  std::size_t vox_topk = 0;    ///< entries in the responder's answer (0=null)
};

/// One encounter from the initiator's side. Usage, in protocol order:
/// begin → record the two gossip legs (optional, pure accounting) →
/// vox_pending() → if pending, finish_vox(answer) → finish().
class Encounter {
 public:
  Encounter() = default;  ///< inactive; assign from begin()

  [[nodiscard]] static Encounter begin(VoteAgent& initiator, Time now) {
    Encounter e;
    e.initiator_ = &initiator;
    e.now_ = now;
    return e;
  }

  /// Fold a completed gossip leg into the outcome (no agent calls — the
  /// legs themselves run through gossip_send or the wire codecs).
  void record_forward(const GossipLegOutcome& leg) { out_.forward = leg; }
  void record_reverse(const GossipLegOutcome& leg) { out_.reverse = leg; }

  /// The VP decision (Fig. 3a), evaluated *after* both gossip legs — a leg
  /// that lifts the box past B_min suppresses the request on every
  /// transport alike. Records the decision in the outcome.
  [[nodiscard]] bool vox_pending() {
    out_.vox_requested = initiator_->bootstrapping();
    return out_.vox_requested;
  }

  /// Responder half of the VP leg (Fig. 3c) — an empty list is the
  /// protocol's explicit "null" answer.
  [[nodiscard]] static RankedList answer_vox(VoteAgent& responder) {
    return responder.answer_topk();
  }

  /// Initiator half: account and merge a (possibly null) answer.
  void finish_vox(RankedList answer) {
    out_.vox_topk = answer.size();
    if (!answer.empty()) initiator_->receive_topk(std::move(answer));
  }

  /// Final outcome for the caller's accounting.
  [[nodiscard]] const VoteEncounterOutcome& finish() const { return out_; }

 private:
  VoteAgent* initiator_ = nullptr;
  Time now_ = 0;
  VoteEncounterOutcome out_;
};

/// One full encounter of `initiator` with a PSS-sampled `responder`:
/// mutual exchange of signed full vote lists, then the conditional VP leg.
/// A node's outgoing message never depends on what it just received, so the
/// sequential legs are bit-identical to a simultaneous build-then-merge.
VoteEncounterOutcome vote_encounter(VoteAgent& initiator,
                                    VoteAgent& responder, Time now);

}  // namespace tribvote::vote
