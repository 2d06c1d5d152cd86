// Little-endian byte helpers and the FNV-1a fold shared by every control-plane
// codec (token frames, probe payloads, task/result frames) and the trace hash.
// Kept header-only so the agents, the codecs and the runtime hash identical
// bytes identically — the determinism seam depends on one implementation.
//
// Two layers: the raw-pointer store_*/load_* primitives, which the bulk
// token codec uses to write and read a pre-sized frame in one tight loop, and
// the vector put_*/get_* helpers built on them for small frames assembled
// field by field. Neither checks bounds; callers validate lengths first.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace score::hypervisor::wire {

inline std::uint8_t* store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
  return p + 4;
}

inline std::uint8_t* store_u64(std::uint8_t* p, std::uint64_t v) {
  p = store_u32(p, static_cast<std::uint32_t>(v));
  return store_u32(p, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         (static_cast<std::uint64_t>(load_u32(p + 4)) << 32);
}

inline void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  const std::size_t at = buf.size();
  buf.resize(at + 4);
  store_u32(buf.data() + at, v);
}

inline std::uint32_t get_u32(const std::vector<std::uint8_t>& buf,
                             std::size_t pos) {
  return load_u32(buf.data() + pos);
}

inline void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  const std::size_t at = buf.size();
  buf.resize(at + 8);
  store_u64(buf.data() + at, v);
}

inline std::uint64_t get_u64(const std::vector<std::uint8_t>& buf,
                             std::size_t pos) {
  return load_u64(buf.data() + pos);
}

inline void put_f64(std::vector<std::uint8_t>& buf, double v) {
  put_u64(buf, std::bit_cast<std::uint64_t>(v));
}

inline double get_f64(const std::vector<std::uint8_t>& buf, std::size_t pos) {
  return std::bit_cast<double>(get_u64(buf, pos));
}

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}

inline std::uint64_t fnv1a_bytes(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) h = fnv1a(h, b);
  return h;
}

}  // namespace score::hypervisor::wire
