#include "bt/transfer_ledger.hpp"

#include <cassert>

namespace tribvote::bt {

namespace {
constexpr double kBytesPerMb = 1024.0 * 1024.0;
}

TransferLedger::TransferLedger(std::size_t n_peers)
    : n_(n_peers),
      up_bytes_(n_peers),
      down_bytes_(n_peers),
      total_up_(n_peers, 0.0),
      total_down_(n_peers, 0.0),
      version_(n_peers, 0) {}

void TransferLedger::add_transfer(PeerId from, PeerId to, double bytes) {
  assert(from < n_ && to < n_ && from != to);
  assert(bytes >= 0);
  up_bytes_[from][to] += bytes;
  down_bytes_[to][from] += bytes;
  total_up_[from] += bytes;
  total_down_[to] += bytes;
  ++version_[from];
  ++version_[to];
}

double TransferLedger::uploaded_mb(PeerId from, PeerId to) const {
  assert(from < n_ && to < n_);
  const auto& row = up_bytes_[from];
  const auto it = row.find(to);
  return it == row.end() ? 0.0 : it->second / kBytesPerMb;
}

double TransferLedger::total_uploaded_mb(PeerId peer) const {
  assert(peer < n_);
  return total_up_[peer] / kBytesPerMb;
}

double TransferLedger::total_downloaded_mb(PeerId peer) const {
  assert(peer < n_);
  return total_down_[peer] / kBytesPerMb;
}

std::vector<TransferRecord> TransferLedger::direct_view(PeerId p) const {
  assert(p < n_);
  std::vector<TransferRecord> records;
  for (const auto& [to, bytes] : up_bytes_[p]) {
    records.push_back(TransferRecord{p, to, bytes / kBytesPerMb});
  }
  for (const auto& [from, bytes] : down_bytes_[p]) {
    records.push_back(TransferRecord{from, p, bytes / kBytesPerMb});
  }
  return records;
}

}  // namespace tribvote::bt
