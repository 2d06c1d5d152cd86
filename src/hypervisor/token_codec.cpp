#include "hypervisor/token_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "hypervisor/wire.hpp"

namespace score::hypervisor {

namespace {

using wire::get_u32;
using wire::load_u32;
using wire::load_u64;
using wire::put_u32;
using wire::store_u32;
using wire::store_u64;

constexpr std::uint8_t kCheckedBit = 0x80;
constexpr std::uint8_t kMagic[4] = {'S', 'C', 'T', 'K'};
constexpr std::size_t kEntryBytes = 5;

}  // namespace

std::vector<std::uint8_t> encode_rr_token(const std::vector<std::uint32_t>& ids) {
  std::vector<std::uint8_t> buf;
  buf.reserve(rr_token_bytes(ids.size()));
  std::uint32_t prev = 0;
  bool first = true;
  for (std::uint32_t id : ids) {
    if (!first && id <= prev) {
      throw std::invalid_argument("encode_rr_token: ids must be strictly ascending");
    }
    put_u32(buf, id);
    prev = id;
    first = false;
  }
  return buf;
}

std::vector<std::uint32_t> decode_rr_token(const std::vector<std::uint8_t>& buf) {
  if (buf.size() % 4 != 0) {
    throw std::invalid_argument("decode_rr_token: truncated buffer");
  }
  std::vector<std::uint32_t> ids;
  ids.reserve(buf.size() / 4);
  for (std::size_t pos = 0; pos < buf.size(); pos += 4) {
    const std::uint32_t id = get_u32(buf, pos);
    if (!ids.empty() && id <= ids.back()) {
      throw std::invalid_argument("decode_rr_token: ids not ascending");
    }
    ids.push_back(id);
  }
  return ids;
}

std::vector<std::uint8_t> encode_hlf_token(const std::vector<TokenEntry>& entries) {
  std::vector<std::uint8_t> buf;
  buf.reserve(hlf_token_bytes(entries.size()));
  std::uint32_t prev = 0;
  bool first = true;
  for (const TokenEntry& e : entries) {
    if (!first && e.vm_id <= prev) {
      throw std::invalid_argument("encode_hlf_token: ids must be strictly ascending");
    }
    put_u32(buf, e.vm_id);
    buf.push_back(e.level);
    prev = e.vm_id;
    first = false;
  }
  return buf;
}

std::vector<TokenEntry> decode_hlf_token(const std::vector<std::uint8_t>& buf) {
  if (buf.size() % 5 != 0) {
    throw std::invalid_argument("decode_hlf_token: truncated buffer");
  }
  std::vector<TokenEntry> entries;
  entries.reserve(buf.size() / 5);
  for (std::size_t pos = 0; pos < buf.size(); pos += 5) {
    TokenEntry e;
    e.vm_id = get_u32(buf, pos);
    e.level = buf[pos + 4];
    if (!entries.empty() && e.vm_id <= entries.back().vm_id) {
      throw std::invalid_argument("decode_hlf_token: ids not ascending");
    }
    entries.push_back(e);
  }
  return entries;
}

// ---------------------------------------------------------------------------
// Framed token.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_token(const Token& token) {
  if (token.policy != TokenPolicyId::kRoundRobin &&
      token.policy != TokenPolicyId::kHighestLevelFirst) {
    throw std::invalid_argument("encode_token: unknown policy id");
  }
  if (!std::isfinite(token.aggregate_delta)) {
    throw std::invalid_argument("encode_token: aggregate delta must be finite");
  }
  const std::size_t count = token.entries.size();

  // Size the frame once, then write header and entries through a cursor;
  // the entry loop validates as it writes (a throw discards the buffer).
  std::vector<std::uint8_t> buf(token_frame_bytes(count));
  std::uint8_t* p = std::copy(std::begin(kMagic), std::end(kMagic), buf.data());
  *p++ = kTokenFrameVersion;
  *p++ = static_cast<std::uint8_t>(token.policy);
  p = store_u32(p, token.epoch);
  p = store_u32(p, token.ring_pos);
  p = store_u64(p, std::bit_cast<std::uint64_t>(token.aggregate_delta));
  p = store_u32(p, token.holder);
  p = store_u32(p, static_cast<std::uint32_t>(count));

  const std::uint32_t holder = token.holder;
  bool holder_present = count == 0;
  std::int64_t prev = -1;  // below every 32-bit id: the first entry passes
  for (const TokenWireEntry& e : token.entries) {
    if (static_cast<std::int64_t>(e.vm_id) <= prev) {
      throw std::invalid_argument("encode_token: ids must be strictly ascending");
    }
    if (e.level > 0x7F) {
      throw std::invalid_argument("encode_token: level exceeds 7 bits");
    }
    holder_present = holder_present || e.vm_id == holder;
    p = store_u32(p, e.vm_id);
    *p++ = static_cast<std::uint8_t>(e.level | (e.checked ? kCheckedBit : 0));
    prev = e.vm_id;
  }
  if (!holder_present) {
    throw std::invalid_argument("encode_token: holder not in entry list");
  }
  return buf;
}

Token decode_token(const std::vector<std::uint8_t>& buf) {
  const std::uint8_t* data = buf.data();
  const std::size_t size = buf.size();
  if (size < token_frame_header_bytes()) {
    throw std::invalid_argument("decode_token: truncated header");
  }
  if (!std::equal(std::begin(kMagic), std::end(kMagic), data)) {
    throw std::invalid_argument("decode_token: bad magic");
  }
  if (data[4] != kTokenFrameVersion) {
    throw std::invalid_argument("decode_token: unsupported version");
  }
  if (data[5] > static_cast<std::uint8_t>(TokenPolicyId::kHighestLevelFirst)) {
    throw std::invalid_argument("decode_token: unknown policy id");
  }
  const double aggregate_delta = std::bit_cast<double>(load_u64(data + 14));
  if (!std::isfinite(aggregate_delta)) {
    throw std::invalid_argument("decode_token: aggregate delta not finite");
  }
  const std::uint32_t count = load_u32(data + 26);
  // The exact-length check runs before anything is allocated, so a hostile
  // count can never size a buffer larger than the frame that carried it.
  if (size != token_frame_bytes(count)) {
    throw std::invalid_argument("decode_token: length does not match entry count");
  }

  Token token;
  token.policy = static_cast<TokenPolicyId>(data[5]);
  token.epoch = load_u32(data + 6);
  token.ring_pos = load_u32(data + 10);
  token.aggregate_delta = aggregate_delta;
  token.holder = load_u32(data + 22);
  token.entries.resize(count);

  const std::uint8_t* p = data + token_frame_header_bytes();
  TokenWireEntry* e = token.entries.data();
  const std::uint32_t holder = token.holder;
  bool holder_present = count == 0;
  std::int64_t prev = -1;  // below every 32-bit id: the first entry passes
  for (std::uint32_t i = 0; i < count; ++i, p += kEntryBytes, ++e) {
    const std::uint32_t id = load_u32(p);
    const std::uint8_t status = p[4];
    if (static_cast<std::int64_t>(id) <= prev) {
      throw std::invalid_argument("decode_token: ids not ascending");
    }
    e->vm_id = id;
    e->level = status & static_cast<std::uint8_t>(~kCheckedBit);
    e->checked = (status & kCheckedBit) != 0;
    holder_present = holder_present || id == holder;
    prev = id;
  }
  if (!holder_present) {
    throw std::invalid_argument("decode_token: holder not in entry list");
  }
  return token;
}

}  // namespace score::hypervisor
