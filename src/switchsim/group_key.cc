#include "switchsim/group_key.h"

#include <algorithm>

#include "common/hash.h"

namespace superfe {
namespace {

void PutU32(GroupKey& key, size_t off, uint32_t v) {
  key.bytes[off] = static_cast<uint8_t>(v >> 24);
  key.bytes[off + 1] = static_cast<uint8_t>(v >> 16);
  key.bytes[off + 2] = static_cast<uint8_t>(v >> 8);
  key.bytes[off + 3] = static_cast<uint8_t>(v);
}

// Host key: the initiator's IP, so both directions of a flow share it.
GroupKey HostKey(uint32_t initiator_ip) {
  GroupKey key;
  key.granularity = Granularity::kHost;
  key.length = 4;
  PutU32(key, 0, initiator_ip);
  return key;
}

// Channel key: the *ordered* (initiator, responder) pair — not min/max
// canonicalized. Ordering by initiator keeps the granularity chain nested
// (host ⊇ channel ⊇ socket/flow): a min/max pair {A,B} could mix flows
// initiated from either end, whose host keys (A vs B) would route to
// different shards while the channel state expected them together.
GroupKey ChannelKey(uint32_t initiator_ip, uint32_t responder_ip) {
  GroupKey key;
  key.granularity = Granularity::kChannel;
  key.length = 8;
  PutU32(key, 0, initiator_ip);
  PutU32(key, 4, responder_ip);
  return key;
}

GroupKey TupleKey(const FiveTuple& tuple, Granularity granularity) {
  GroupKey key;
  key.granularity = granularity;
  key.length = 13;
  const auto bytes = tuple.ToBytes();
  std::copy(bytes.begin(), bytes.end(), key.bytes.begin());
  return key;
}

}  // namespace

FiveTuple GroupKey::InitiatorTuple(const PacketRecord& pkt) { return pkt.InitiatorTuple(); }

GroupKey GroupKey::ForPacket(const PacketRecord& pkt, Granularity granularity) {
  return FromFgTuple(InitiatorTuple(pkt), granularity);
}

GroupKey GroupKey::FromFgTuple(const FiveTuple& fg, Granularity granularity) {
  switch (granularity) {
    case Granularity::kHost:
      return HostKey(fg.src_ip);
    case Granularity::kChannel:
      return ChannelKey(fg.src_ip, fg.dst_ip);
    case Granularity::kSocket:
    case Granularity::kFlow:
      return TupleKey(fg, granularity);
  }
  return {};
}

uint32_t GroupKey::Hash() const {
  return Crc32(bytes.data(), length, static_cast<uint32_t>(granularity) * 0x1003fu);
}

std::string GroupKey::ToString() const {
  std::string out;
  AppendText(&out);
  return out;
}

void GroupKey::AppendText(std::string* out) const {
  static constexpr char kHex[] = "0123456789abcdef";
  out->append(GranularityName(granularity));
  out->push_back(':');
  char hex[2 * sizeof(bytes)];
  for (int i = 0; i < length; ++i) {
    hex[2 * i] = kHex[bytes[i] >> 4];
    hex[2 * i + 1] = kHex[bytes[i] & 0xf];
  }
  out->append(hex, 2 * length);
}

}  // namespace superfe
