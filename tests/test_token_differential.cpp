// hypervisor/token_codec framed-token differential: the bulk encoder and
// decoder against the per-byte codec they replaced, kept here as the
// executable spec of the wire bytes. Encoding must be byte-identical on RR
// and HLF tokens of 0, 1, a few dozen and 8,192 entries (checked bits, every
// level 0..127, non-zero aggregate delta, ids up to 2^32-1), and must reject
// exactly the tokens the reference rejects. Decoding must accept and reject
// exactly what the reference does — on every prefix, every single-bit flip
// and random multi-byte mutations — and yield the same token when it
// accepts. The encoded bytes are what control_mb, the trace hash and the
// golden traces are computed from, so this suite pins them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "hypervisor/token_codec.hpp"
#include "util/rng.hpp"

namespace {

using score::hypervisor::decode_token;
using score::hypervisor::encode_token;
using score::hypervisor::kTokenFrameVersion;
using score::hypervisor::Token;
using score::hypervisor::token_frame_bytes;
using score::hypervisor::token_frame_header_bytes;
using score::hypervisor::TokenPolicyId;
using score::hypervisor::TokenWireEntry;
using score::util::Rng;

// ---- the reference: one push_back per byte, one field at a time -----------

namespace ref {

constexpr std::uint8_t kCheckedBit = 0x80;
constexpr std::uint8_t kMagic[4] = {'S', 'C', 'T', 'K'};

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  buf.push_back(static_cast<std::uint8_t>(v));
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
  buf.push_back(static_cast<std::uint8_t>(v >> 16));
  buf.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  put_u32(buf, static_cast<std::uint32_t>(v));
  put_u32(buf, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& buf, std::size_t pos) {
  return static_cast<std::uint32_t>(buf[pos]) |
         (static_cast<std::uint32_t>(buf[pos + 1]) << 8) |
         (static_cast<std::uint32_t>(buf[pos + 2]) << 16) |
         (static_cast<std::uint32_t>(buf[pos + 3]) << 24);
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& buf, std::size_t pos) {
  return static_cast<std::uint64_t>(get_u32(buf, pos)) |
         (static_cast<std::uint64_t>(get_u32(buf, pos + 4)) << 32);
}

std::vector<std::uint8_t> encode(const Token& token) {
  if (token.policy != TokenPolicyId::kRoundRobin &&
      token.policy != TokenPolicyId::kHighestLevelFirst) {
    throw std::invalid_argument("unknown policy id");
  }
  if (!std::isfinite(token.aggregate_delta)) {
    throw std::invalid_argument("aggregate delta must be finite");
  }
  bool holder_present = token.entries.empty();
  std::uint32_t prev = 0;
  bool first = true;
  for (const TokenWireEntry& e : token.entries) {
    if (!first && e.vm_id <= prev) throw std::invalid_argument("not ascending");
    if (e.level > 0x7F) throw std::invalid_argument("level exceeds 7 bits");
    holder_present = holder_present || e.vm_id == token.holder;
    prev = e.vm_id;
    first = false;
  }
  if (!holder_present) throw std::invalid_argument("holder not in entry list");

  std::vector<std::uint8_t> buf;
  for (const std::uint8_t b : kMagic) buf.push_back(b);
  buf.push_back(kTokenFrameVersion);
  buf.push_back(static_cast<std::uint8_t>(token.policy));
  put_u32(buf, token.epoch);
  put_u32(buf, token.ring_pos);
  put_u64(buf, std::bit_cast<std::uint64_t>(token.aggregate_delta));
  put_u32(buf, token.holder);
  put_u32(buf, static_cast<std::uint32_t>(token.entries.size()));
  for (const TokenWireEntry& e : token.entries) {
    put_u32(buf, e.vm_id);
    buf.push_back(static_cast<std::uint8_t>(e.level | (e.checked ? kCheckedBit : 0)));
  }
  return buf;
}

Token decode(const std::vector<std::uint8_t>& buf) {
  if (buf.size() < token_frame_header_bytes()) throw std::invalid_argument("header");
  if (!std::equal(std::begin(kMagic), std::end(kMagic), buf.begin())) {
    throw std::invalid_argument("magic");
  }
  if (buf[4] != kTokenFrameVersion) throw std::invalid_argument("version");
  if (buf[5] > static_cast<std::uint8_t>(TokenPolicyId::kHighestLevelFirst)) {
    throw std::invalid_argument("policy");
  }
  Token token;
  token.policy = static_cast<TokenPolicyId>(buf[5]);
  token.epoch = get_u32(buf, 6);
  token.ring_pos = get_u32(buf, 10);
  token.aggregate_delta = std::bit_cast<double>(get_u64(buf, 14));
  if (!std::isfinite(token.aggregate_delta)) throw std::invalid_argument("delta");
  token.holder = get_u32(buf, 22);
  const std::uint32_t count = get_u32(buf, 26);
  if (buf.size() != token_frame_bytes(count)) throw std::invalid_argument("length");
  bool holder_present = count == 0;
  for (std::size_t pos = token_frame_header_bytes(); pos < buf.size(); pos += 5) {
    TokenWireEntry e;
    e.vm_id = get_u32(buf, pos);
    e.level = buf[pos + 4] & static_cast<std::uint8_t>(~kCheckedBit);
    e.checked = (buf[pos + 4] & kCheckedBit) != 0;
    if (!token.entries.empty() && e.vm_id <= token.entries.back().vm_id) {
      throw std::invalid_argument("not ascending");
    }
    holder_present = holder_present || e.vm_id == token.holder;
    token.entries.push_back(e);
  }
  if (!holder_present) throw std::invalid_argument("holder");
  return token;
}

}  // namespace ref

// ---- helpers ----------------------------------------------------------------

template <typename F>
std::optional<decltype(std::declval<F>()())> outcome(F f) {
  try {
    return f();
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

/// Both decoders on `buf`: the same accept/reject verdict, and on accept the
/// same token (compared field-wise and through the reference encoder, so a
/// -0.0/+0.0 delta cannot hide). Returns whether the frame was accepted.
bool expect_same_decode(const std::vector<std::uint8_t>& buf, const char* what,
                        std::size_t at) {
  const std::optional<Token> want = outcome([&] { return ref::decode(buf); });
  const std::optional<Token> got = outcome([&] { return decode_token(buf); });
  EXPECT_EQ(want.has_value(), got.has_value())
      << what << " " << at << ": reference " << (want ? "accepts" : "rejects")
      << ", bulk decoder " << (got ? "accepts" : "rejects");
  if (want && got) {
    EXPECT_EQ(*want, *got) << what << " " << at;
    EXPECT_EQ(ref::encode(*got), buf) << what << " " << at;
  }
  return want.has_value() && got.has_value();
}

/// A token of `n` entries with ascending ids drawn with random gaps (the
/// last at 2^32-1 when `top_id`), random levels 0..127 and checked bits.
Token random_token(Rng& rng, std::size_t n, TokenPolicyId policy, bool top_id) {
  Token t;
  t.policy = policy;
  t.epoch = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
  t.ring_pos = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
  t.aggregate_delta = -rng.uniform(1.0, 1e9);
  std::uint32_t id = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
  for (std::size_t i = 0; i < n; ++i) {
    TokenWireEntry e;
    e.vm_id = id;
    e.level = static_cast<std::uint8_t>(rng.uniform_int(0, 127));
    e.checked = rng.chance(0.5);
    t.entries.push_back(e);
    id += static_cast<std::uint32_t>(rng.uniform_int(1, 1000));
  }
  if (top_id && n > 0) {
    t.entries.back().vm_id = std::numeric_limits<std::uint32_t>::max();
  }
  t.holder = n == 0 ? 7u : t.entries[rng.index(n)].vm_id;
  return t;
}

std::vector<Token> corpus() {
  Rng rng(20260);
  std::vector<Token> out;
  for (const TokenPolicyId policy :
       {TokenPolicyId::kRoundRobin, TokenPolicyId::kHighestLevelFirst}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{37},
                                std::size_t{8192}}) {
      out.push_back(random_token(rng, n, policy, n == 37));
    }
  }
  // Every level 0..127, each with and without the checked bit, id 0 first.
  Token levels;
  levels.policy = TokenPolicyId::kHighestLevelFirst;
  levels.aggregate_delta = 2.5e-7;
  for (std::uint32_t i = 0; i < 256; ++i) {
    levels.entries.push_back({i * 3, static_cast<std::uint8_t>(i % 128), i >= 128});
  }
  levels.holder = 0;
  out.push_back(levels);
  return out;
}

// ---- encoder ----------------------------------------------------------------

TEST(TokenWireDifferential, EncodeIsByteIdentical) {
  for (const Token& t : corpus()) {
    const auto want = ref::encode(t);
    EXPECT_EQ(encode_token(t), want) << t.entries.size() << " entries";
    EXPECT_EQ(want.size(), token_frame_bytes(t.entries.size()));
  }
}

TEST(TokenWireDifferential, EncodeRejectsExactlyWhatReferenceRejects) {
  Rng rng(11);
  const Token base = random_token(rng, 37, TokenPolicyId::kHighestLevelFirst, false);
  std::vector<Token> variants;
  Token t = base;
  t.entries[5].vm_id = t.entries[4].vm_id;  // duplicate id
  variants.push_back(t);
  t = base;
  std::swap(t.entries[10], t.entries[11]);  // descending pair
  variants.push_back(t);
  t = base;
  t.entries[0].vm_id = t.entries[1].vm_id + 1;  // first entry out of order
  variants.push_back(t);
  t = base;
  t.entries[36].level = 128;  // level past 7 bits
  variants.push_back(t);
  t = base;
  t.holder = t.entries[3].vm_id + 1;  // holder absent
  variants.push_back(t);
  t = base;
  t.aggregate_delta = std::numeric_limits<double>::quiet_NaN();
  variants.push_back(t);
  t = base;
  t.aggregate_delta = -std::numeric_limits<double>::infinity();
  variants.push_back(t);
  t = base;
  t.policy = static_cast<TokenPolicyId>(2);
  variants.push_back(t);
  t = base;
  t.entries.clear();  // empty list: any holder is accepted
  variants.push_back(t);
  t = base;
  t.aggregate_delta = -0.0;
  variants.push_back(t);

  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto want = outcome([&] { return ref::encode(variants[i]); });
    const auto got = outcome([&] { return encode_token(variants[i]); });
    ASSERT_EQ(want.has_value(), got.has_value()) << "variant " << i;
    if (want) {
      EXPECT_EQ(*want, *got) << "variant " << i;
    }
  }
}

// ---- decoder ----------------------------------------------------------------

TEST(TokenWireDifferential, DecodeAgreesOnEveryPrefix) {
  for (const Token& t : corpus()) {
    const auto frame = ref::encode(t);
    // The full frame is accepted by both; each shorter prefix is rejected
    // by both (checked through the same differential).
    std::size_t accepted = 0;
    for (std::size_t len = 0; len <= frame.size(); ++len) {
      const std::vector<std::uint8_t> prefix(frame.begin(),
                                             frame.begin() + static_cast<long>(len));
      if (expect_same_decode(prefix, "prefix", len)) ++accepted;
    }
    EXPECT_EQ(accepted, 1u) << t.entries.size() << " entries";
  }
}

TEST(TokenWireDifferential, DecodeAgreesOnEverySingleBitFlip) {
  std::size_t accepted = 0;
  std::size_t flips = 0;
  for (const Token& t : corpus()) {
    const auto frame = ref::encode(t);
    // Every bit of frames up to a few hundred entries; on the 8,192-entry
    // frames the header and the first and last 64 entries (the middle
    // entries take the same path as these).
    const std::size_t edge = token_frame_header_bytes() + 64 * 5;
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
      if (frame.size() > 4 * edge && byte >= edge && byte < frame.size() - 64 * 5) {
        continue;
      }
      for (int bit = 0; bit < 8; ++bit) {
        auto buf = frame;
        buf[byte] ^= static_cast<std::uint8_t>(1u << bit);
        if (expect_same_decode(buf, "bit flip at byte", byte)) ++accepted;
        ++flips;
      }
    }
  }
  // Flips in the epoch/ring/holder-free fields and the status bytes decode
  // to valid tokens, so both verdicts are exercised.
  EXPECT_GT(accepted, flips / 10);
  EXPECT_LT(accepted, flips);
}

TEST(TokenWireDifferential, DecodeAgreesOnRandomMutations) {
  Rng rng(424242);
  std::size_t accepted = 0;
  std::size_t trials = 0;
  for (const Token& t : corpus()) {
    const auto frame = ref::encode(t);
    const int rounds = t.entries.size() > 1000 ? 200 : 2000;
    for (int r = 0; r < rounds; ++r) {
      auto buf = frame;
      switch (rng.uniform_int(0, 3)) {
        case 0: {  // 1-4 random byte overwrites
          const int n = static_cast<int>(rng.uniform_int(1, 4));
          for (int i = 0; i < n && !buf.empty(); ++i) {
            buf[rng.index(buf.size())] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          }
          break;
        }
        case 1:  // overwrite inside the header (count, holder, delta, ...)
          buf[rng.index(std::min(buf.size(), token_frame_header_bytes()))] =
              static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          break;
        case 2:  // truncate or extend by up to 10 bytes
          buf.resize(buf.size() + rng.index(21) - std::min<std::size_t>(10, buf.size()));
          break;
        default: {  // swap two entries' ids (ordering violations)
          if (t.entries.size() >= 2) {
            const std::size_t a = rng.index(t.entries.size());
            const std::size_t b = rng.index(t.entries.size());
            const std::size_t pa = token_frame_header_bytes() + 5 * a;
            const std::size_t pb = token_frame_header_bytes() + 5 * b;
            std::swap_ranges(buf.begin() + static_cast<long>(pa),
                             buf.begin() + static_cast<long>(pa + 4),
                             buf.begin() + static_cast<long>(pb));
          }
          break;
        }
      }
      if (expect_same_decode(buf, "mutation", static_cast<std::size_t>(r))) ++accepted;
      ++trials;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, trials);
}

TEST(TokenWireDifferential, HostileCountIsRejectedBeforeAllocating) {
  // A header claiming 2^32-1 entries on a header-only frame: both reject on
  // length alone (the bulk decoder sizes nothing from the count first).
  Token t;
  auto frame = ref::encode(t);
  for (std::size_t i = 26; i < 30; ++i) frame[i] = 0xFF;
  expect_same_decode(frame, "count", 0);
  EXPECT_THROW(decode_token(frame), std::invalid_argument);
}

}  // namespace
