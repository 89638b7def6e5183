// Byte codec shared by every binary format in the library: summaries and
// process images (gc/cycle/snapshot_io) and flight recordings
// (obs/recorder).  Fixed-width fields in host byte order — little endian on
// every supported platform — appended to a std::string; a bounds-checked
// reader; and the 64-bit FNV-1a hash the formats use as their checksum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace rgc::util {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over `bytes`, continuing from `h` (chain calls to hash a
/// sequence incrementally).
[[nodiscard]] inline std::uint64_t fnv1a(
    std::string_view bytes, std::uint64_t h = kFnvOffset) noexcept {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
void put(std::string& out, T v) {
  char b[sizeof(T)];
  std::memcpy(b, &v, sizeof(T));
  out.append(b, sizeof(T));
}

inline void put_u8(std::string& out, std::uint8_t v) { put(out, v); }
inline void put_u16(std::string& out, std::uint16_t v) { put(out, v); }
inline void put_u32(std::string& out, std::uint32_t v) { put(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put(out, v); }
inline void put_bool(std::string& out, bool v) { put_u8(out, v ? 1 : 0); }

/// Bounds-checked reader: any overrun or implausible count poisons `ok`,
/// and every later read is a no-op returning zero.
struct ByteReader {
  std::string_view bytes;
  std::size_t at{0};
  bool ok{true};

  bool need(std::size_t n) {
    if (!ok || bytes.size() - at < n) {
      ok = false;
      return false;
    }
    return true;
  }
  template <typename T>
  T get() {
    T v{};
    if (!need(sizeof(T))) return v;
    std::memcpy(&v, bytes.data() + at, sizeof(T));
    at += sizeof(T);
    return v;
  }
  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  bool boolean() { return u8() != 0; }
  /// The next `n` bytes (empty once poisoned).
  std::string_view take(std::size_t n) {
    if (!need(n)) return {};
    const std::string_view out = bytes.substr(at, n);
    at += n;
    return out;
  }
  /// A u32 count field.  A count that claims more elements than the
  /// remaining bytes could hold (each at least `min_bytes_each`) is
  /// corruption, not a huge allocation.
  std::uint32_t count(std::size_t min_bytes_each) {
    const std::uint32_t n = u32();
    if (!ok) return 0;
    if (min_bytes_each != 0 && n > (bytes.size() - at) / min_bytes_each) {
      ok = false;
      return 0;
    }
    return n;
  }
};

}  // namespace rgc::util
