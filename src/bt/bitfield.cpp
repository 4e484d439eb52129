#include "bt/bitfield.hpp"

namespace tribvote::bt {

Bitfield::Bitfield(std::size_t n_bits)
    : n_bits_(n_bits), words_((n_bits + 63) / 64, 0) {}

void Bitfield::set_all() noexcept {
  count_ = n_bits_;
  if (n_bits_ == 0) return;
  for (auto& w : words_) w = ~0ULL;
  // Clear the padding bits in the final word.
  const std::size_t rem = n_bits_ % 64;
  if (rem != 0) words_.back() &= (1ULL << rem) - 1;
}

bool Bitfield::has_piece_not_in(const Bitfield& other) const noexcept {
  assert(n_bits_ == other.n_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] & ~other.words_[w]) return true;
  }
  return false;
}

}  // namespace tribvote::bt
