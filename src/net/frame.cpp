#include "net/frame.hpp"

#include "net/crc32.hpp"
#include "net/wire.hpp"

namespace tribvote::net {

bool valid_frame_type(std::uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
    case FrameType::kEncounterBegin:
    case FrameType::kEncounterEnd:
    case FrameType::kBye:
    case FrameType::kVoteFull:
    case FrameType::kVoxRequest:
    case FrameType::kVoxTopK:
    case FrameType::kModBatch:
    case FrameType::kPeerExchange:
      return true;
  }
  return false;
}

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.u8(kMagic0);
  w.u8(kMagic1);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(frame.type));
  w.u8(frame.channel);
  w.u8(0);
  w.u8(0);
  w.u8(0);
  w.u32(static_cast<std::uint32_t>(frame.payload.size()));
  w.u32(crc32(frame.payload));
  w.bytes(frame.payload.data(), frame.payload.size());
}

void FrameReader::feed(const std::uint8_t* data, std::size_t size) {
  if (corrupt_) return;
  stats_.bytes += size;
  buffer_.insert(buffer_.end(), data, data + size);
  parse();
}

bool FrameReader::next(Frame& out) {
  if (ready_.empty()) return false;
  out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

void FrameReader::parse() {
  std::size_t cursor = 0;
  while (!corrupt_ && buffer_.size() - cursor >= kHeaderSize) {
    const std::uint8_t* h = buffer_.data() + cursor;
    WireReader r(h, kHeaderSize);
    const std::uint8_t m0 = r.u8();
    const std::uint8_t m1 = r.u8();
    const std::uint8_t version = r.u8();
    const std::uint8_t type = r.u8();
    const std::uint8_t channel = r.u8();
    const std::uint8_t rsv0 = r.u8();
    const std::uint8_t rsv1 = r.u8();
    const std::uint8_t rsv2 = r.u8();
    const std::uint32_t length = r.u32();
    const std::uint32_t crc = r.u32();
    if (m0 != kMagic0 || m1 != kMagic1 || version != kWireVersion ||
        !valid_frame_type(type) || channel > 1 || rsv0 != 0 || rsv1 != 0 ||
        rsv2 != 0 || length > kMaxPayload) {
      ++stats_.malformed;
      corrupt_ = true;
      break;
    }
    if (buffer_.size() - cursor - kHeaderSize < length) break;  // incomplete
    const std::uint8_t* payload = h + kHeaderSize;
    if (crc32(payload, length) != crc) {
      ++stats_.checksum_rejects;
      corrupt_ = true;
      break;
    }
    Frame f;
    f.type = static_cast<FrameType>(type);
    f.channel = channel;
    f.payload.assign(payload, payload + length);
    ready_.push_back(std::move(f));
    ++stats_.frames;
    cursor += kHeaderSize + length;
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(cursor));
  if (corrupt_) buffer_.clear();
}

}  // namespace tribvote::net
