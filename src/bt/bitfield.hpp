// Piece-possession bitfield, the per-member piece map every BitTorrent
// client maintains. Packed 64-bit words; sized once at torrent granularity.
// A running popcount makes count()/all()/none() O(1); the words are exposed
// read-only so the piece picker can scan candidates 64 pieces at a time.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace tribvote::bt {

class Bitfield {
 public:
  Bitfield() = default;
  explicit Bitfield(std::size_t n_bits);

  [[nodiscard]] std::size_t size() const noexcept { return n_bits_; }
  [[nodiscard]] bool test(std::size_t i) const noexcept {
    assert(i < n_bits_);
    return (words_[i / 64] >> (i % 64)) & 1ULL;
  }
  /// Set bit i; the count moves only on a clear -> set change.
  void set(std::size_t i) noexcept {
    assert(i < n_bits_);
    std::uint64_t& w = words_[i / 64];
    const std::uint64_t bit = 1ULL << (i % 64);
    count_ += (w & bit) == 0;
    w |= bit;
  }
  /// Clear bit i; the count moves only on a set -> clear change.
  void reset(std::size_t i) noexcept {
    assert(i < n_bits_);
    std::uint64_t& w = words_[i / 64];
    const std::uint64_t bit = 1ULL << (i % 64);
    count_ -= (w & bit) != 0;
    w &= ~bit;
  }
  /// Set every bit (seed state).
  void set_all() noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] bool all() const noexcept { return count_ == n_bits_; }
  [[nodiscard]] bool none() const noexcept { return count_ == 0; }

  /// Packed storage: bit i lives in word(i / 64) at position i % 64. The
  /// padding bits of the final word are always clear.
  [[nodiscard]] std::size_t word_count() const noexcept {
    return words_.size();
  }
  [[nodiscard]] std::uint64_t word(std::size_t w) const noexcept {
    assert(w < words_.size());
    return words_[w];
  }

  /// True when this bitfield holds at least one piece `other` lacks — the
  /// "is interested" test between an uploader (this) and a downloader
  /// (other). Word-parallel. Sizes must match.
  [[nodiscard]] bool has_piece_not_in(const Bitfield& other) const noexcept;

 private:
  std::size_t n_bits_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace tribvote::bt
