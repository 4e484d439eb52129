// Transfer-ledger read-back tests (bt/transfer_ledger.hpp).
//
//   * LedgerEquivalence.RandomStreamReadsBackIdentically — a random
//     transfer stream must read back *bit-identically* from TransferLedger
//     and from a plain std::map model fed the same stream: pair counters,
//     both totals, versions and the (sorted) direct views, with queries
//     interleaved mid-stream.
//   * LedgerEquivalence.ShardCountDoesNotChangeReads — a full scenario run
//     leaves the same ledger behind at shard counts 1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bt/transfer_ledger.hpp"
#include "core/runner.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace tribvote::bt {
namespace {

constexpr double kBytesPerMb = 1024.0 * 1024.0;

/// The obvious model: one byte counter per ordered pair, plus per-peer
/// totals and touch counts, all accumulated in stream order.
struct ReferenceLedger {
  std::map<std::pair<PeerId, PeerId>, double> bytes;
  std::map<PeerId, double> up;
  std::map<PeerId, double> down;
  std::map<PeerId, std::uint64_t> touches;

  void add(PeerId from, PeerId to, double b) {
    bytes[{from, to}] += b;
    up[from] += b;
    down[to] += b;
    ++touches[from];
    ++touches[to];
  }

  template <class Map>
  static auto get(const Map& m, const typename Map::key_type& k) {
    const auto it = m.find(k);
    return it == m.end() ? typename Map::mapped_type{} : it->second;
  }

  [[nodiscard]] double uploaded_mb(PeerId from, PeerId to) const {
    return get(bytes, {from, to}) / kBytesPerMb;
  }

  /// Every pair touching `p`, in (from, to) order.
  [[nodiscard]] std::vector<TransferRecord> direct_view(PeerId p) const {
    std::vector<TransferRecord> records;
    for (const auto& [pair, b] : bytes) {
      if (pair.first == p || pair.second == p) {
        records.push_back(TransferRecord{pair.first, pair.second,
                                         b / kBytesPerMb});
      }
    }
    return records;
  }
};

/// Direct-view order follows the hash rows; sort it into (from, to) order.
std::vector<TransferRecord> sorted(std::vector<TransferRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const TransferRecord& a, const TransferRecord& b) {
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  return records;
}

void expect_same_view(const std::vector<TransferRecord>& got,
                      const std::vector<TransferRecord>& want, PeerId p) {
  ASSERT_EQ(got.size(), want.size()) << "peer " << p;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].from, want[k].from) << "peer " << p << " record " << k;
    EXPECT_EQ(got[k].to, want[k].to) << "peer " << p << " record " << k;
    EXPECT_EQ(got[k].mb, want[k].mb)
        << "peer " << p << " record " << k << " (" << want[k].from << "->"
        << want[k].to << ")";
  }
}

/// Every observable of the ledger must match the model to the last bit.
void expect_matches(const TransferLedger& ledger, const ReferenceLedger& ref,
                    std::size_t n) {
  ASSERT_EQ(ledger.peer_count(), n);
  for (PeerId p = 0; p < n; ++p) {
    EXPECT_EQ(ledger.total_uploaded_mb(p),
              ReferenceLedger::get(ref.up, p) / kBytesPerMb)
        << "peer " << p;
    EXPECT_EQ(ledger.total_downloaded_mb(p),
              ReferenceLedger::get(ref.down, p) / kBytesPerMb)
        << "peer " << p;
    EXPECT_EQ(ledger.version(p), ReferenceLedger::get(ref.touches, p))
        << "peer " << p;
    expect_same_view(sorted(ledger.direct_view(p)), ref.direct_view(p), p);
  }
  for (PeerId from = 0; from < n; ++from) {
    for (PeerId to = 0; to < n; ++to) {
      EXPECT_EQ(ledger.uploaded_mb(from, to), ref.uploaded_mb(from, to))
          << from << "->" << to;
    }
  }
}

/// Every observable of two ledgers must agree to the last bit.
void expect_identical(const TransferLedger& a, const TransferLedger& b) {
  ASSERT_EQ(a.peer_count(), b.peer_count());
  const std::size_t n = a.peer_count();
  for (PeerId p = 0; p < n; ++p) {
    EXPECT_EQ(a.total_uploaded_mb(p), b.total_uploaded_mb(p)) << "peer " << p;
    EXPECT_EQ(a.total_downloaded_mb(p), b.total_downloaded_mb(p))
        << "peer " << p;
    EXPECT_EQ(a.version(p), b.version(p)) << "peer " << p;
    expect_same_view(sorted(a.direct_view(p)), sorted(b.direct_view(p)), p);
  }
}

class LedgerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LedgerEquivalence, RandomStreamReadsBackIdentically) {
  constexpr std::size_t kPeers = 48;
  constexpr std::size_t kTransfers = 4000;
  util::Rng rng(GetParam());
  TransferLedger ledger(kPeers);
  ReferenceLedger ref;
  expect_matches(ledger, ref, kPeers);  // a fresh ledger reads all zero
  for (std::size_t t = 0; t < kTransfers; ++t) {
    const auto from = static_cast<PeerId>(rng.next_below(kPeers));
    auto to = static_cast<PeerId>(rng.next_below(kPeers));
    if (to == from) to = (to + 1) % kPeers;
    // Skewed pairs so the same pair accumulates repeatedly (the FP
    // order-sensitivity the bit-identity argument is about).
    const double bytes = rng.next_bool(0.5)
                             ? rng.next_double(1.0, 50.0) * 1024 * 1024
                             : rng.next_double(0.0, 1.0) * 1024;
    ledger.add_transfer(from, to, bytes);
    ref.add(from, to, bytes);
    // Interleaved spot checks.
    if (t % 97 == 0) {
      const auto p = static_cast<PeerId>(rng.next_below(kPeers));
      EXPECT_EQ(ledger.total_uploaded_mb(p),
                ReferenceLedger::get(ref.up, p) / kBytesPerMb);
      EXPECT_EQ(ledger.uploaded_mb(from, to), ref.uploaded_mb(from, to));
      EXPECT_EQ(ledger.version(p), ReferenceLedger::get(ref.touches, p));
      expect_same_view(sorted(ledger.direct_view(p)), ref.direct_view(p), p);
    }
  }
  expect_matches(ledger, ref, kPeers);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerEquivalence,
                         ::testing::Values(1u, 7u, 42u, 20090525u));

/// Full stack: swarm ticks, preseeding and BarterCast reads all go through
/// the one ledger, and what a run leaves in it must not depend on how many
/// worker shards executed the protocol rounds.
TEST(LedgerEquivalence, ShardCountDoesNotChangeReads) {
  trace::GeneratorParams params;
  params.n_peers = 20;
  params.n_swarms = 3;
  params.duration = kDay;
  params.founder_fraction = 0.7;
  params.arrival_window = 0.3;
  const trace::Trace tr = trace::generate_trace(params, 5);

  std::vector<std::unique_ptr<core::ScenarioRunner>> runners;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    core::ScenarioConfig config;
    config.shards = shards;
    runners.push_back(std::make_unique<core::ScenarioRunner>(tr, config, 42));
    runners.back()->preseed_transfer(0, 1, 3.5);
    runners.back()->run_until(tr.duration);
  }
  const core::ScenarioRunner& serial = *runners[0];
  const core::ScenarioRunner& sharded = *runners[1];
  EXPECT_GT(serial.stats().downloads_completed, 0u);
  EXPECT_EQ(serial.stats().downloads_completed,
            sharded.stats().downloads_completed);
  EXPECT_EQ(serial.stats().barter_exchanges, sharded.stats().barter_exchanges);
  expect_identical(serial.ledger(), sharded.ledger());
  EXPECT_EQ(serial.collective_experience(5.0),
            sharded.collective_experience(5.0));
}

}  // namespace
}  // namespace tribvote::bt
