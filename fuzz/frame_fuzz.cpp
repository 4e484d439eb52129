// Fuzz entry for the wire plane: the incremental FrameReader and every
// strict payload codec (PROTOCOL.md §3-§4, §8). Two harnesses share one
// corpus format, selected by the first input byte:
//
//   0x00        — stream mode: the rest is fed byte-split into a
//                 FrameReader; each popped frame's payload is dispatched
//                 to the decoder its type names.
//   0x01..0x06  — payload mode: the rest goes straight into one decoder
//                 (selector order matches selector_for below). On a
//                 successful decode the message is re-encoded and must
//                 decode again — the codecs' canonical-form contract.
//
// Built as a libFuzzer target when the toolchain has one (clang
// -fsanitize=fuzzer); with GCC the standalone main() below replays corpus
// files and runs a deterministic mutation loop, so the same binary serves
// as the CI fuzz smoke. Nothing here asserts content semantics —
// signatures are the receiver's job — only memory safety and the
// decode/encode/decode closure.
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "net/codec.hpp"
#include "net/frame.hpp"
#include "net/impairment.hpp"

namespace {

using namespace tribvote;
using namespace tribvote::net;

void decode_payload(std::uint8_t selector,
                    const std::vector<std::uint8_t>& payload) {
  switch (selector) {
    case 1: {
      HelloMessage m;
      if (decode_hello(payload, m)) {
        HelloMessage again;
        const bool ok = decode_hello(encode_hello(m), again);
        assert(ok);
        (void)ok;
      }
      break;
    }
    case 2: {
      EncounterBegin m;
      if (decode_encounter_begin(payload, m)) {
        EncounterBegin again;
        const bool ok = decode_encounter_begin(encode_encounter_begin(m), again);
        assert(ok);
        (void)ok;
      }
      break;
    }
    case 3: {
      vote::VoteListMessage m;
      if (decode_vote_full(payload, m)) {
        vote::VoteListMessage again;
        const bool ok = decode_vote_full(encode_vote_full(m), again);
        assert(ok);
        (void)ok;
      }
      break;
    }
    case 4: {
      vote::RankedList m;
      if (decode_vox_topk(payload, m)) {
        vote::RankedList again;
        const bool ok = decode_vox_topk(encode_vox_topk(m), again);
        assert(ok);
        (void)ok;
      }
      break;
    }
    case 5: {
      std::vector<moderation::Moderation> m;
      if (decode_mod_batch(payload, m)) {
        std::vector<moderation::Moderation> again;
        const bool ok = decode_mod_batch(encode_mod_batch(m), again);
        assert(ok);
        (void)ok;
      }
      break;
    }
    case 6: {
      PeerExchangeMessage m;
      if (decode_peer_exchange(payload, m)) {
        assert(m.descriptors.size() <= kMaxPeerDescriptors);
        PeerExchangeMessage again;
        const bool ok = decode_peer_exchange(encode_peer_exchange(m), again);
        assert(ok && again.descriptors.size() == m.descriptors.size());
        (void)ok;
      }
      break;
    }
    default:
      break;
  }
}

std::uint8_t selector_for(FrameType type) {
  switch (type) {
    case FrameType::kHello: return 1;
    case FrameType::kEncounterBegin: return 2;
    case FrameType::kVoteFull: return 3;
    case FrameType::kVoxTopK: return 4;
    case FrameType::kModBatch: return 5;
    case FrameType::kPeerExchange: return 6;
    default: return 0;  // EncounterEnd/Bye/VoxRequest carry no payload codec
  }
}

void fuzz_stream(const std::uint8_t* data, std::size_t size) {
  FrameReader reader;
  // Split the feed at data-derived points so the reader's resume-from-
  // partial-header and resume-from-partial-payload paths both run.
  std::size_t pos = 0;
  while (pos < size) {
    std::size_t chunk = 1 + (data[pos] % 37u);
    if (chunk > size - pos) chunk = size - pos;
    reader.feed(data + pos, chunk);
    pos += chunk;
    Frame f;
    while (reader.next(f)) {
      decode_payload(selector_for(f.type), f.payload);
    }
  }
  if (reader.corrupt()) {
    // Sticky: no frame may surface after corruption.
    reader.feed(data, size < 64 ? size : 64);
    Frame f;
    const bool none = !reader.next(f);
    assert(none);
    (void)none;
  }
  assert(reader.stats().bytes <= 2 * static_cast<std::uint64_t>(size));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::uint8_t mode = data[0];
  std::vector<std::uint8_t> rest(data + 1, data + size);
  if (mode == 0) {
    fuzz_stream(rest.data(), rest.size());
  } else {
    decode_payload(mode, rest);
  }
  return 0;
}

#ifndef TRIBVOTE_HAVE_LIBFUZZER
// ---- standalone driver (GCC builds, CI fuzz smoke) -------------------------
//
//   frame_fuzz --make-corpus DIR     write seed inputs into DIR
//   frame_fuzz --random N SEED       N deterministic random/mutated inputs
//   frame_fuzz FILE...               replay corpus files

#include <cstdlib>
#include <string>

namespace {

using tribvote::Opinion;

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

std::vector<std::vector<std::uint8_t>> make_seeds() {
  std::vector<std::vector<std::uint8_t>> seeds;
  const auto add_payload = [&seeds](std::uint8_t selector,
                                    const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> input;
    input.push_back(selector);
    input.insert(input.end(), payload.begin(), payload.end());
    seeds.push_back(input);
  };
  const auto add_stream = [&seeds](FrameType type, std::uint8_t channel,
                                   const std::vector<std::uint8_t>& payload) {
    Frame f;
    f.type = type;
    f.channel = channel;
    f.payload = payload;
    std::vector<std::uint8_t> input;
    input.push_back(0);  // stream mode
    encode_frame(f, input);
    seeds.push_back(input);
  };

  HelloMessage hello;
  hello.peer = 7;
  add_payload(1, encode_hello(hello));
  add_stream(FrameType::kHello, 0, encode_hello(hello));

  EncounterBegin begin;
  begin.kind = kEncounterVote;
  begin.time = 1234;
  add_payload(2, encode_encounter_begin(begin));
  add_stream(FrameType::kEncounterBegin, 0, encode_encounter_begin(begin));

  vote::VoteListMessage full;
  full.voter = 3;
  full.votes.push_back(vote::VoteEntry{5, Opinion::kPositive, 100});
  full.votes.push_back(vote::VoteEntry{9, Opinion::kNegative, 200});
  add_payload(3, encode_vote_full(full));
  add_stream(FrameType::kVoteFull, 1, encode_vote_full(full));

  add_payload(4, encode_vox_topk(vote::RankedList{4, 8, 15}));

  moderation::Moderation mod;
  mod.moderator = 2;
  mod.infohash = 0xfeed;
  mod.created = 50;
  mod.description = "seed";
  add_payload(5, encode_mod_batch({mod}));

  PeerExchangeMessage exchange;
  exchange.reply_requested = true;
  PeerDescriptor d;
  d.peer = 11;
  d.ip = 0x7f000001u;
  d.port = 4242;
  d.heartbeat = 77;
  exchange.descriptors.push_back(d);
  add_payload(6, encode_peer_exchange(exchange));
  add_stream(FrameType::kPeerExchange, 1, encode_peer_exchange(exchange));

  // Two frames back to back plus a truncated third — the reassembly path.
  {
    std::vector<std::uint8_t> input;
    input.push_back(0);
    Frame f;
    f.type = FrameType::kHello;
    f.payload = encode_hello(hello);
    encode_frame(f, input);
    f.type = FrameType::kPeerExchange;
    f.channel = 1;
    f.payload = encode_peer_exchange(exchange);
    encode_frame(f, input);
    input.resize(input.size() - 5);
    seeds.push_back(input);
  }

  // Impairment artifacts (DESIGN.md §16): the same healthy multi-frame
  // stream pushed through the transport chaos shim at full corruption /
  // truncation / GE-loss rates. These are the exact byte patterns an
  // impaired NodeService hands its FrameReader — bit-flipped chunks the
  // CRC must reject, a mid-frame prefix from a truncate-then-reset, and a
  // burst-loss stream that dies between chunk boundaries.
  {
    std::vector<std::uint8_t> healthy;
    Frame f;
    f.type = FrameType::kHello;
    f.payload = encode_hello(hello);
    encode_frame(f, healthy);
    vote::VoteListMessage big;
    big.voter = 3;
    for (std::uint32_t i = 0; i < 64; ++i) {
      big.votes.push_back(vote::VoteEntry{
          static_cast<ModeratorId>(1 + i % 24),
          (i % 2 == 0) ? Opinion::kPositive : Opinion::kNegative,
          static_cast<Time>(100 + i)});
    }
    f.type = FrameType::kVoteFull;
    f.channel = 1;
    f.payload = encode_vote_full(big);
    encode_frame(f, healthy);  // > 2 chunks: verdicts land mid-frame
    f.type = FrameType::kPeerExchange;
    f.payload = encode_peer_exchange(exchange);
    encode_frame(f, healthy);

    const auto add_impaired = [&seeds, &healthy](ImpairConfig icfg,
                                                 std::uint64_t seed) {
      Impairment shim(icfg, seed, 1);
      const std::uint64_t key = shim.open_stream();
      std::vector<Impairment::Action> actions;
      shim.ingest(key, healthy.data(), healthy.size(), actions);
      std::vector<std::uint8_t> input;
      input.push_back(0);  // stream mode
      for (const Impairment::Action& a : actions) {
        input.insert(input.end(), a.bytes.begin(), a.bytes.end());
      }
      if (input.size() > 1) seeds.push_back(input);
    };
    ImpairConfig corrupt;
    corrupt.corrupt_rate = 1.0;
    add_impaired(corrupt, 11);
    ImpairConfig truncate;
    truncate.truncate_rate = 1.0;
    add_impaired(truncate, 12);
    ImpairConfig bursty;
    bursty.ge_good_to_bad = 0.4;
    bursty.ge_loss_good = 0.05;
    add_impaired(bursty, 13);
  }
  return seeds;
}

int run_one_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "frame_fuzz: cannot open %s\n", path);
    return 1;
  }
  std::vector<std::uint8_t> data;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  std::fclose(f);
  LLVMFuzzerTestOneInput(data.data(), data.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--make-corpus") {
    const auto seeds = make_seeds();
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      char path[512];
      std::snprintf(path, sizeof path, "%s/seed_%02zu.bin", argv[2], i);
      std::FILE* f = std::fopen(path, "wb");
      if (f == nullptr) {
        std::fprintf(stderr, "frame_fuzz: cannot write %s\n", path);
        return 1;
      }
      std::fwrite(seeds[i].data(), 1, seeds[i].size(), f);
      std::fclose(f);
    }
    std::printf("frame_fuzz: wrote %zu seeds to %s\n", seeds.size(), argv[2]);
    return 0;
  }
  if (argc >= 3 && std::string(argv[1]) == "--random") {
    const long iters = std::strtol(argv[2], nullptr, 10);
    SplitMix rng{argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 42u};
    const auto seeds = make_seeds();
    for (long i = 0; i < iters; ++i) {
      std::vector<std::uint8_t> input;
      if ((rng.next() & 1u) != 0 && !seeds.empty()) {
        // Mutate a seed: flip, truncate, or extend.
        input = seeds[rng.next() % seeds.size()];
        const std::uint64_t edits = 1 + rng.next() % 8;
        for (std::uint64_t e = 0; e < edits && !input.empty(); ++e) {
          switch (rng.next() % 3) {
            case 0:
              input[rng.next() % input.size()] ^=
                  static_cast<std::uint8_t>(rng.next());
              break;
            case 1:
              input.resize(1 + rng.next() % input.size());
              break;
            default:
              input.push_back(static_cast<std::uint8_t>(rng.next()));
              break;
          }
        }
      } else {
        const std::uint64_t len = rng.next() % 512;
        input.reserve(len);
        for (std::uint64_t b = 0; b < len; ++b) {
          input.push_back(static_cast<std::uint8_t>(rng.next()));
        }
      }
      LLVMFuzzerTestOneInput(input.data(), input.size());
    }
    std::printf("frame_fuzz: %ld random inputs, no crashes\n", iters);
    return 0;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) rc |= run_one_file(argv[i]);
  if (argc == 1) {
    for (const auto& s : make_seeds()) {
      LLVMFuzzerTestOneInput(s.data(), s.size());
    }
    std::printf("frame_fuzz: replayed built-in seeds, no crashes\n");
  }
  return rc;
}
#endif  // TRIBVOTE_HAVE_LIBFUZZER
