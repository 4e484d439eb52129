// Contribution ledger: who uploaded how much to whom (DESIGN.md §9).
//
// Every byte moved by the swarm engine is accounted here. Writers are the
// swarm engine, scenario preseeding and the adversary plane's credit
// transfers; readers are BarterCast (per-peer direct views and totals) and
// the evaluation metrics (pair counters — allowed global knowledge per the
// paper's footnote 8).
//
// Sparse row storage: row[from] maps to -> bytes, mirrored by an incoming
// index so a peer's direct view is O(degree). Right-sized for the paper's
// 100–1000-peer populations, where a swarm hands each peer a bounded
// neighbour set and each row holds only tens of counterparts.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/ids.hpp"

namespace tribvote::bt {

/// One direct-transfer record as a peer would report it: "a uploaded
/// `mb` megabytes to b".
struct TransferRecord {
  PeerId from = kInvalidPeer;
  PeerId to = kInvalidPeer;
  double mb = 0;
};

class TransferLedger {
 public:
  explicit TransferLedger(std::size_t n_peers);

  /// Record `bytes` uploaded by `from` to `to`.
  void add_transfer(PeerId from, PeerId to, double bytes);

  /// Megabytes uploaded by `from` to `to` so far.
  [[nodiscard]] double uploaded_mb(PeerId from, PeerId to) const;

  /// Total megabytes uploaded by a peer to everyone.
  [[nodiscard]] double total_uploaded_mb(PeerId peer) const;

  /// Total megabytes downloaded by a peer from everyone.
  [[nodiscard]] double total_downloaded_mb(PeerId peer) const;

  /// The direct records peer `p` can truthfully report: every counterpart
  /// it exchanged data with, both directions. This is the local view
  /// BarterCast gossips. Record order follows the hash rows; every
  /// consumer is order-insensitive (outgoing_records sorts, sync_direct
  /// applies per-pair set semantics).
  [[nodiscard]] std::vector<TransferRecord> direct_view(PeerId p) const;

  [[nodiscard]] std::size_t peer_count() const noexcept { return n_; }

  /// Monotone counter bumped whenever a transfer touches `peer` (either
  /// direction). Lets BarterCast agents skip re-syncing an unchanged
  /// direct view — the dominant cost in long runs.
  [[nodiscard]] std::uint64_t version(PeerId peer) const {
    return version_[peer];
  }

 private:
  std::size_t n_;
  std::vector<std::unordered_map<PeerId, double>> up_bytes_;
  std::vector<std::unordered_map<PeerId, double>> down_bytes_;
  std::vector<double> total_up_;
  std::vector<double> total_down_;
  std::vector<std::uint64_t> version_;
};

}  // namespace tribvote::bt
