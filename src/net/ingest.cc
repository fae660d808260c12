#include "net/ingest.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/wire.h"

namespace superfe {
namespace {

uint32_t ReadU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t ReadU64Le(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = v << 8 | p[i];
  }
  return v;
}

void PutU32Le(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void PutU64Le(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

}  // namespace

LoopedTraceSource::LoopedTraceSource(const Trace* trace, uint64_t loops)
    : trace_(trace), loops_(loops), period_ns_(trace != nullptr ? PeriodNs(*trace) : 0) {}

uint64_t LoopedTraceSource::PeriodNs(const Trace& trace) {
  if (trace.empty()) {
    return 1;
  }
  const uint64_t span =
      trace.packets().back().timestamp_ns - trace.packets().front().timestamp_ns;
  const uint64_t gap = std::max<uint64_t>(1, span / trace.size());
  return span + gap;
}

Trace LoopedTraceSource::Materialize(const Trace& trace, uint64_t loops) {
  Trace out(trace.name() + "_x" + std::to_string(loops));
  out.Reserve(trace.size() * loops);
  const uint64_t period = PeriodNs(trace);
  for (uint64_t l = 0; l < loops; ++l) {
    for (const auto& original : trace.packets()) {
      PacketRecord pkt = original;
      pkt.timestamp_ns += l * period;
      out.Add(pkt);
    }
  }
  return out;
}

PacketSource::Next LoopedTraceSource::NextChunk(std::vector<PacketRecord>* out,
                                                size_t max_packets) {
  if (trace_ == nullptr || trace_->empty() || stop_.load(std::memory_order_relaxed)) {
    return Next::kEnd;
  }
  if (loops_ != 0 && loop_ >= loops_) {
    return Next::kEnd;
  }
  const auto& packets = trace_->packets();
  const uint64_t offset = loop_ * period_ns_;
  const size_t end = std::min(packets.size(), cursor_ + std::max<size_t>(max_packets, 1));
  for (; cursor_ < end; ++cursor_) {
    PacketRecord pkt = packets[cursor_];
    pkt.timestamp_ns += offset;
    out->push_back(pkt);
    ++stats_.frames;
    stats_.bytes += pkt.wire_bytes;
  }
  if (cursor_ >= packets.size()) {
    cursor_ = 0;
    ++loop_;
    ++stats_.loops_completed;
  }
  ++stats_.chunks;
  return Next::kChunk;
}

void AppendIngestRecord(std::string* out, const PacketRecord& record) {
  const std::vector<uint8_t> frame = EncodeFrame(record);
  uint8_t header[kIngestHeaderLen];
  PutU32Le(header, static_cast<uint32_t>(frame.size()));
  PutU64Le(header + 4, record.timestamp_ns);
  header[12] = record.direction == Direction::kBackward ? 1 : 0;
  out->append(reinterpret_cast<const char*>(header), sizeof(header));
  out->append(reinterpret_cast<const char*>(frame.data()), frame.size());
}

Result<std::unique_ptr<SocketSource>> SocketSource::Open(
    const SocketSourceOptions& options) {
  std::unique_ptr<SocketSource> source(new SocketSource());
  source->options_ = options;
  if (options.udp) {
    uint16_t bound = 0;
    source->udp_fd_ = UdpBind(options.port, options.io_timeout_ms, &bound);
    if (source->udp_fd_ < 0) {
      return Status::Internal("udp ingest bind 127.0.0.1:" +
                              std::to_string(options.port) + ": " +
                              std::strerror(errno));
    }
    source->port_ = bound;
  } else {
    auto listener = TcpListener::Listen(options.port, 4);
    if (!listener.ok()) {
      return listener.status();
    }
    source->listener_ = std::move(listener).value();
    source->port_ = source->listener_.port();
  }
  return source;
}

SocketSource::~SocketSource() {
  CloseFd(client_fd_);
  CloseFd(udp_fd_);
}

PacketSource::Next SocketSource::NextChunk(std::vector<PacketRecord>* out,
                                           size_t max_packets) {
  return options_.udp ? NextChunkUdp(out, max_packets) : NextChunkTcp(out, max_packets);
}

void SocketSource::DropPeer() {
  if (client_fd_ >= 0) {
    CloseFd(client_fd_);
    client_fd_ = -1;
    ++stats_.disconnects;
    buf_.clear();
  }
}

bool SocketSource::DrainBuffer(std::vector<PacketRecord>* out, size_t max_packets) {
  size_t pos = 0;
  bool synced = true;
  while (out->size() < max_packets && buf_.size() - pos >= kIngestHeaderLen) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf_.data()) + pos;
    const uint32_t frame_len = ReadU32Le(p);
    if (frame_len < kMinFrameLen || frame_len > options_.max_frame_bytes) {
      // An insane length prefix means the byte stream is desynced; record
      // boundaries are unrecoverable, so the caller drops the peer.
      ++stats_.frames_damaged;
      synced = false;
      pos = buf_.size();
      break;
    }
    if (buf_.size() - pos < kIngestHeaderLen + frame_len) {
      break;  // Partial record; wait for more bytes.
    }
    const uint64_t timestamp_ns = ReadU64Le(p + 4);
    const uint8_t direction = p[12];
    auto parsed = ParseFrame(p + kIngestHeaderLen, frame_len);
    if (parsed.ok()) {
      PacketRecord pkt = std::move(parsed).value();
      // The wire carries no capture metadata; take it from the framing.
      pkt.timestamp_ns = timestamp_ns;
      pkt.direction = direction == 1 ? Direction::kBackward : Direction::kForward;
      out->push_back(pkt);
      ++stats_.frames;
      stats_.bytes += frame_len;
    } else {
      // Framing is intact but the frame itself is damaged: skip it and stay
      // in sync, mirroring the pcap reader's damage tolerance.
      ++stats_.frames_damaged;
    }
    pos += kIngestHeaderLen + frame_len;
  }
  buf_.erase(0, pos);
  return synced;
}

PacketSource::Next SocketSource::NextChunkTcp(std::vector<PacketRecord>* out,
                                              size_t max_packets) {
  const size_t want = std::max<size_t>(max_packets, 1);
  if (client_fd_ < 0) {
    if (stop_.load(std::memory_order_relaxed)) {
      return Next::kEnd;
    }
    const int conn =
        listener_.AcceptWithTimeout(options_.accept_timeout_ms, options_.io_timeout_ms);
    if (conn < 0) {
      ++stats_.idle_waits;
      return stop_.load(std::memory_order_relaxed) ? Next::kEnd : Next::kIdle;
    }
    client_fd_ = conn;
    ++stats_.accepts;
    buf_.clear();
  }
  // Records left complete in the buffer by a previous (full) chunk first.
  if (!buf_.empty() && !DrainBuffer(out, want)) {
    DropPeer();
  }
  char chunk[4096];
  while (client_fd_ >= 0 && out->size() < want) {
    const ssize_t n = RecvSome(client_fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buf_.append(chunk, static_cast<size_t>(n));
      if (!DrainBuffer(out, want)) {
        DropPeer();
      }
      continue;
    }
    if (n == 0) {
      DropPeer();  // Orderly EOF; keep listening for the next peer.
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;  // SO_RCVTIMEO expired: idle, keep the connection.
    }
    DropPeer();  // Hard receive error.
    break;
  }
  if (!out->empty()) {
    ++stats_.chunks;
    return Next::kChunk;
  }
  ++stats_.idle_waits;
  return stop_.load(std::memory_order_relaxed) ? Next::kEnd : Next::kIdle;
}

PacketSource::Next SocketSource::NextChunkUdp(std::vector<PacketRecord>* out,
                                              size_t max_packets) {
  const size_t want = std::max<size_t>(max_packets, 1);
  std::vector<uint8_t> dgram(kIngestHeaderLen + options_.max_frame_bytes);
  while (out->size() < want) {
    const ssize_t n = RecvDatagram(udp_fd_, dgram.data(), dgram.size());
    if (n <= 0) {
      break;  // Timeout (0) or transient error (-1): idle either way.
    }
    if (static_cast<size_t>(n) < kIngestHeaderLen) {
      ++stats_.frames_damaged;
      continue;
    }
    const uint32_t frame_len = ReadU32Le(dgram.data());
    if (frame_len != static_cast<size_t>(n) - kIngestHeaderLen ||
        frame_len < kMinFrameLen || frame_len > options_.max_frame_bytes) {
      ++stats_.frames_damaged;
      continue;
    }
    auto parsed = ParseFrame(dgram.data() + kIngestHeaderLen, frame_len);
    if (!parsed.ok()) {
      ++stats_.frames_damaged;
      continue;
    }
    PacketRecord pkt = std::move(parsed).value();
    pkt.timestamp_ns = ReadU64Le(dgram.data() + 4);
    pkt.direction = dgram[12] == 1 ? Direction::kBackward : Direction::kForward;
    out->push_back(pkt);
    ++stats_.frames;
    stats_.bytes += frame_len;
  }
  if (!out->empty()) {
    ++stats_.chunks;
    return Next::kChunk;
  }
  ++stats_.idle_waits;
  return stop_.load(std::memory_order_relaxed) ? Next::kEnd : Next::kIdle;
}

}  // namespace superfe
