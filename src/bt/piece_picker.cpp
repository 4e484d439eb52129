#include "bt/piece_picker.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace tribvote::bt {

PiecePicker::PiecePicker(std::size_t n_pieces) : avail_(n_pieces, 0) {}

void PiecePicker::add_have(std::size_t piece) {
  assert(piece < avail_.size());
  ++avail_[piece];
}

void PiecePicker::remove_have(std::size_t piece) {
  assert(piece < avail_.size());
  assert(avail_[piece] > 0);
  --avail_[piece];
}

void PiecePicker::add_bitfield(const Bitfield& bf) {
  assert(bf.size() == avail_.size());
  for (std::size_t i = 0; i < bf.size(); ++i) {
    if (bf.test(i)) ++avail_[i];
  }
}

void PiecePicker::remove_bitfield(const Bitfield& bf) {
  assert(bf.size() == avail_.size());
  for (std::size_t i = 0; i < bf.size(); ++i) {
    if (bf.test(i)) {
      assert(avail_[i] > 0);
      --avail_[i];
    }
  }
}

std::uint32_t PiecePicker::availability(std::size_t piece) const {
  assert(piece < avail_.size());
  return avail_[piece];
}

std::size_t PiecePicker::pick(const Bitfield& uploader_has,
                              const Bitfield& downloader_has,
                              const Bitfield& in_flight,
                              util::Rng& rng) const {
  return pick_window(uploader_has, downloader_has, in_flight, 0,
                     avail_.size(), rng);
}

std::size_t PiecePicker::pick_window(const Bitfield& uploader_has,
                                     const Bitfield& downloader_has,
                                     const Bitfield& in_flight,
                                     std::size_t lo, std::size_t hi,
                                     util::Rng& rng) const {
  assert(uploader_has.size() == avail_.size());
  assert(downloader_has.size() == avail_.size());
  assert(in_flight.size() == avail_.size());
  hi = std::min(hi, avail_.size());
  if (lo >= hi) return kNoPiece;
  // Single ascending pass over the eligible pieces with reservoir-style
  // random tie-breaking among the current minimum-availability candidates.
  // Eligibility is computed 64 pieces per word; the draws happen per
  // eligible piece in index order, as a bit-by-bit scan would make them.
  std::uint32_t best_avail = std::numeric_limits<std::uint32_t>::max();
  std::size_t best = kNoPiece;
  std::uint64_t ties = 0;
  const std::size_t first = lo / 64;
  const std::size_t last = (hi - 1) / 64;
  for (std::size_t w = first; w <= last; ++w) {
    std::uint64_t bits =
        uploader_has.word(w) & ~downloader_has.word(w) & ~in_flight.word(w);
    if (w == first) bits &= ~0ULL << (lo % 64);
    if (w == last && hi % 64 != 0) bits &= (1ULL << (hi % 64)) - 1;
    for (; bits != 0; bits &= bits - 1) {
      const std::size_t p =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      if (avail_[p] < best_avail) {
        best_avail = avail_[p];
        best = p;
        ties = 1;
      } else if (avail_[p] == best_avail) {
        ++ties;
        if (rng.next_below(ties) == 0) best = p;
      }
    }
  }
  return best;
}

}  // namespace tribvote::bt
