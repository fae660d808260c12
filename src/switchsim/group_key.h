// Group keys for the SuperFE granularities, in the byte layout the switch
// hash units consume.
//
// Every key is stored in *initiator orientation*: the finest-granularity
// (FG) key is the five-tuple as sent by the flow initiator, the channel key
// is the ordered (initiator, responder) IP pair, and the host key is the
// initiator's IP. Orienting the whole chain the same way means each coarser
// key is a prefix-projection of the FG key — both directions of a flow map
// to the same key at every granularity, so any coarser key is derivable
// from the FG key alone (no direction bit needed), which is what lets MGPV
// store each packet's metadata once and re-split on the NIC (§5.1). It also
// makes CG-hash routing exact under sharding: a group's packets can never
// straddle shards/members just because the two directions hashed apart.
#ifndef SUPERFE_SWITCHSIM_GROUP_KEY_H_
#define SUPERFE_SWITCHSIM_GROUP_KEY_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "net/packet.h"
#include "policy/ast.h"

namespace superfe {

struct GroupKey {
  Granularity granularity = Granularity::kFlow;
  uint8_t length = 0;               // Valid bytes.
  std::array<uint8_t, 13> bytes{};  // Max = five-tuple.

  bool operator==(const GroupKey& other) const {
    return granularity == other.granularity && length == other.length &&
           std::memcmp(bytes.data(), other.bytes.data(), length) == 0;
  }
  bool operator!=(const GroupKey& other) const { return !(*this == other); }

  // The key of `granularity` for this packet (host = the initiator's IP;
  // channel = ordered initiator→responder IP pair; socket/flow =
  // initiator-oriented five-tuple).
  static GroupKey ForPacket(const PacketRecord& pkt, Granularity granularity);

  // The initiator-oriented five-tuple of the packet (the FG key stored in
  // the synchronized table).
  static FiveTuple InitiatorTuple(const PacketRecord& pkt);

  // Derives a coarser key from an initiator-oriented FG five-tuple. All
  // granularities project from the FG key alone — no direction needed.
  static GroupKey FromFgTuple(const FiveTuple& fg, Granularity granularity);

  // 32-bit CRC hash, as computed by the Tofino hash engine; the same value
  // is shipped to the NIC (hash-reuse optimization, §6.2).
  uint32_t Hash() const;

  // "<granularity>:<hex bytes>", e.g. "flow:0a000001...". AppendText
  // appends the same text to `out` (the CSV export's hot path).
  std::string ToString() const;
  void AppendText(std::string* out) const;
};

struct GroupKeyHash {
  size_t operator()(const GroupKey& key) const { return key.Hash(); }
};

}  // namespace superfe

#endif  // SUPERFE_SWITCHSIM_GROUP_KEY_H_
