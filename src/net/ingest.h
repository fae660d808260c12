// Pluggable packet ingest for the run loop (one-shot and daemon).
//
// Every run — one-shot or daemon — pulls bounded chunks from a PacketSource
// and feeds them to the streaming replayer, so memory stays bounded and the
// source can be something other than a file. Two sources ship:
// LoopedTraceSource (a loaded pcap/generated trace, chunked, replayed once,
// N times, or forever — the soak workload) and SocketSource (a loopback
// TCP/UDP listener carrying length-prefixed wire frames plus capture
// metadata, reusing src/common/socket.*).
//
// The contract is pull-based and non-blocking-ish: NextChunk() returns
//   kChunk — `out` holds 1..max_packets records (appended, in arrival order)
//   kIdle  — nothing available right now; the caller backs off and retries
//   kEnd   — the source is exhausted (or RequestStop() was honored)
// Sources tolerate damage (bad frames are counted and skipped, a desynced
// TCP peer is dropped and re-accepted) rather than failing the daemon.
#ifndef SUPERFE_NET_INGEST_H_
#define SUPERFE_NET_INGEST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "net/trace.h"

namespace superfe {

struct IngestStats {
  uint64_t chunks = 0;           // NextChunk calls that returned kChunk
  uint64_t frames = 0;           // Records delivered
  uint64_t bytes = 0;            // Wire bytes delivered
  uint64_t frames_damaged = 0;   // Unparseable/oversized frames skipped
  uint64_t loops_completed = 0;  // LoopedTraceSource full passes
  uint64_t accepts = 0;          // SocketSource TCP connections accepted
  uint64_t disconnects = 0;      // SocketSource peers that went away
  uint64_t idle_waits = 0;       // NextChunk calls that returned kIdle
};

class PacketSource {
 public:
  enum class Next { kChunk, kIdle, kEnd };

  virtual ~PacketSource() = default;

  // Appends up to `max_packets` records to `*out` (which the caller has
  // cleared). Called from one ingest thread.
  virtual Next NextChunk(std::vector<PacketRecord>* out, size_t max_packets) = 0;

  virtual const IngestStats& stats() const = 0;

  // Asks the source to wind down: the next NextChunk returns kEnd once
  // already-buffered data is handed out. Safe to call from another thread.
  virtual void RequestStop() {}
};

// `loops` back-to-back copies of `trace` (0 = endlessly many), copy l
// shifted by l × LoopedTraceSource::PeriodNs(*trace): the packet stream a
// LoopedTraceSource emits, as an index space. Implicit from a bare Trace*,
// which names one copy.
struct LoopedTrace {
  LoopedTrace(const Trace* trace = nullptr, uint64_t loops = 1)  // NOLINT(google-explicit-constructor)
      : trace(trace), loops(loops) {}
  const Trace* trace;
  uint64_t loops;
};

// Chunked cursor over an in-memory Trace: replays it `loops` times (1 = the
// plain one-shot stream; 0 = until RequestStop), shifting loop l's
// timestamps by l × PeriodNs(trace) so the stream stays time-ordered with a
// one-mean-gap seam between passes. Chunks never span a loop boundary.
class LoopedTraceSource : public PacketSource {
 public:
  LoopedTraceSource(const Trace* trace, uint64_t loops);

  Next NextChunk(std::vector<PacketRecord>* out, size_t max_packets) override;
  const IngestStats& stats() const override { return stats_; }
  void RequestStop() override { stop_.store(true, std::memory_order_relaxed); }

  // Trace span plus one mean inter-packet gap: the timestamp shift between
  // consecutive loops.
  static uint64_t PeriodNs(const Trace& trace);

  // The exact packet stream this source emits for `loops` passes, as one
  // Trace. A test and benchmark oracle: the runtime streams loops from one
  // copy and never calls it.
  static Trace Materialize(const Trace& trace, uint64_t loops);

 private:
  const Trace* trace_;
  const uint64_t loops_;  // 0 = unbounded
  const uint64_t period_ns_;
  uint64_t loop_ = 0;
  size_t cursor_ = 0;
  std::atomic<bool> stop_{false};
  IngestStats stats_;
};

// Wire format of one ingested record on the socket:
//   u32 frame_len (LE) | u64 timestamp_ns (LE) | u8 direction | frame bytes
// The frame bytes are a real Ethernet/IPv4 frame (EncodeFrame); timestamp
// and direction ride alongside because the wire does not carry capture
// metadata (ParseFrame leaves them defaulted).
inline constexpr size_t kIngestHeaderLen = 13;

// Appends one framed record to `*out` — the client side of SocketSource,
// used by tests and external feeders.
void AppendIngestRecord(std::string* out, const PacketRecord& record);

struct SocketSourceOptions {
  uint16_t port = 0;  // 0 = kernel-assigned ephemeral; see port().
  bool udp = false;   // false = TCP stream framing, true = one record/datagram
  int accept_timeout_ms = 50;
  int io_timeout_ms = 50;
  uint32_t max_frame_bytes = 64 * 1024;  // Larger frame_len = desync → drop peer.
};

// Loopback socket ingest. TCP: accepts one peer at a time, accumulates the
// byte stream, parses complete records, and resynchronizes after damage by
// dropping the connection (an insane length prefix means framing is lost)
// while merely skipping frames that fail ParseFrame (framing still intact).
// UDP: one record per datagram, malformed datagrams counted and dropped.
class SocketSource : public PacketSource {
 public:
  static Result<std::unique_ptr<SocketSource>> Open(const SocketSourceOptions& options);
  ~SocketSource() override;

  Next NextChunk(std::vector<PacketRecord>* out, size_t max_packets) override;
  const IngestStats& stats() const override { return stats_; }
  void RequestStop() override { stop_.store(true, std::memory_order_relaxed); }

  uint16_t port() const { return port_; }

 private:
  SocketSource() = default;
  Next NextChunkTcp(std::vector<PacketRecord>* out, size_t max_packets);
  Next NextChunkUdp(std::vector<PacketRecord>* out, size_t max_packets);
  // Parses complete records out of buf_; returns false on desync (caller
  // drops the connection).
  bool DrainBuffer(std::vector<PacketRecord>* out, size_t max_packets);
  void DropPeer();

  SocketSourceOptions options_;
  TcpListener listener_;   // TCP mode
  int client_fd_ = -1;     // TCP mode: the currently-accepted peer
  int udp_fd_ = -1;        // UDP mode
  uint16_t port_ = 0;
  std::string buf_;        // TCP reassembly buffer
  std::atomic<bool> stop_{false};
  IngestStats stats_;
};

}  // namespace superfe

#endif  // SUPERFE_NET_INGEST_H_
