// Length-prefixed CRC-checked framing for the socket transport
// (PROTOCOL.md §2). Every protocol message travels as one frame:
//
//   offset  size  field
//   0       1     magic 'T' (0x54)
//   1       1     magic 'V' (0x56)
//   2       1     wire version (currently 2)
//   3       1     frame type (FrameType; unknown values are fatal)
//   4       1     channel (0 = connector-initiated encounter, 1 = acceptor-
//                 initiated; resolves simultaneous initiation, §3)
//   5       3     reserved, must be zero
//   8       4     payload length N, little-endian (<= kMaxPayload)
//   12      4     CRC-32 of the N payload bytes (net/crc32.hpp)
//   16      N     payload (net/codec.hpp)
//
// Error semantics (PROTOCOL.md §5): a damaged header — bad magic, version,
// type, channel, reserved bits or oversized length — means the byte stream
// can no longer be framed; the reader flags the stream corrupt and the
// connection must be closed (counted `net.malformed`). A payload whose CRC
// does not match is a checksum reject (`net.checksum_rejects`): the frame's
// content cannot be trusted and neither can anything the same peer sends
// next, so it is likewise connection-fatal — the PR 4 fault plane's
// corruption verdict mapped onto a real stream, with the same guarantee
// that nothing damaged is ever delivered upward. Bytes of an incomplete
// frame at stream end are a truncation event (`net.truncated`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace tribvote::net {

inline constexpr std::uint8_t kMagic0 = 0x54;  // 'T'
inline constexpr std::uint8_t kMagic1 = 0x56;  // 'V'
inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::size_t kHeaderSize = 16;
inline constexpr std::size_t kMaxPayload = 1U << 20;

enum class FrameType : std::uint8_t {
  kHello = 0x01,
  kEncounterBegin = 0x02,
  kEncounterEnd = 0x03,
  kBye = 0x04,
  kVoteFull = 0x10,
  // 0x11-0x14 are retired (wire version 1's digest/delta gossip) and fatal.
  kVoxRequest = 0x15,
  kVoxTopK = 0x16,
  kModBatch = 0x20,
  kPeerExchange = 0x30,
};

[[nodiscard]] bool valid_frame_type(std::uint8_t type);

struct Frame {
  FrameType type = FrameType::kHello;
  std::uint8_t channel = 0;
  std::vector<std::uint8_t> payload;
};

/// Serialize one frame (header + CRC + payload) onto `out`.
void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out);

/// Incremental frame parser over an arbitrary byte stream: feed whatever
/// the socket produced, pop complete frames. Sticky error flags — after a
/// malformed header or a CRC mismatch the reader accepts no further bytes
/// and the caller must drop the connection.
class FrameReader {
 public:
  struct Stats {
    std::uint64_t frames = 0;           ///< complete frames delivered
    std::uint64_t bytes = 0;            ///< bytes fed
    std::uint64_t checksum_rejects = 0; ///< payload CRC mismatches
    std::uint64_t malformed = 0;        ///< unframeable headers
  };

  /// Consume `size` bytes from the stream. No-op once corrupt.
  void feed(const std::uint8_t* data, std::size_t size);

  /// Pop the next complete frame, if any.
  bool next(Frame& out);

  /// Stream can no longer be parsed (malformed header or CRC reject).
  [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }

  /// Bytes of an incomplete trailing frame — nonzero at connection close
  /// means the peer truncated mid-frame.
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return buffer_.size();
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void parse();

  std::vector<std::uint8_t> buffer_;
  std::deque<Frame> ready_;
  Stats stats_;
  bool corrupt_ = false;
};

}  // namespace tribvote::net
