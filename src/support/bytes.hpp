/// \file bytes.hpp
/// \brief Bounds-checked little-endian byte serialization.
///
/// The plan store persists labelings and compiled executions across process
/// restarts, so its format must be byte-stable across platforms and safe
/// against corrupted or truncated files.  `ByteWriter` appends fixed-width
/// little-endian fields; `ByteReader` mirrors it with a sticky failure flag:
/// every read past the end (or every length prefix larger than the remaining
/// payload) flips `ok()` to false and returns a zero value, so decoders can
/// run to completion unconditionally and reject the result with one check —
/// no exceptions on the untrusted-input path, no partial allocations from
/// attacker-controlled sizes.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace radiocast::support {

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  /// Length-prefixed (u64 count) vector of u32 values.
  void vec_u32(const std::vector<std::uint32_t>& v) {
    u64(v.size());
    for (const std::uint32_t x : v) u32(x);
  }

  /// Length-prefixed (u64 count) vector of u64 values.
  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (const std::uint64_t x : v) u64(x);
  }

  /// Length-prefixed (u64 count) bit vector, packed 8 bits per byte.
  void vec_bool(const std::vector<bool>& v) {
    u64(v.size());
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i]) acc |= static_cast<std::uint8_t>(1u << (i % 8));
      if (i % 8 == 7) {
        u8(acc);
        acc = 0;
      }
    }
    if (v.size() % 8 != 0) u8(acc);
  }

  const std::string& bytes() const noexcept { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Sticky-failure little-endian decoder over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  /// True iff every byte was consumed and no read failed — the "this buffer
  /// is exactly one well-formed record" verdict.
  bool exhausted() const noexcept { return ok_ && remaining() == 0; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return static_cast<std::uint8_t>(bytes_[pos_ - 1]);
  }

  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes_[pos_ - 4 + i]))
           << (8 * i);
    }
    return v;
  }

  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes_[pos_ - 8 + i]))
           << (8 * i);
    }
    return v;
  }

  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint32_t len = u32();
    if (!take(len)) return {};
    return std::string(bytes_.substr(pos_ - len, len));
  }

  std::vector<std::uint32_t> vec_u32() {
    const std::uint64_t count = u64();
    // A corrupt count cannot claim more elements than bytes remain.
    if (!ok_ || count > remaining() / 4) {
      ok_ = false;
      return {};
    }
    std::vector<std::uint32_t> v(count);
    for (auto& x : v) x = u32();
    return v;
  }

  std::vector<std::uint64_t> vec_u64() {
    const std::uint64_t count = u64();
    if (!ok_ || count > remaining() / 8) {
      ok_ = false;
      return {};
    }
    std::vector<std::uint64_t> v(count);
    for (auto& x : v) x = u64();
    return v;
  }

  std::vector<bool> vec_bool() {
    const std::uint64_t count = u64();
    // ⌈count / 8⌉ by division: `(count + 7) / 8` wraps for counts near 2⁶⁴.
    if (!ok_ || count / 8 + (count % 8 != 0) > remaining()) {
      ok_ = false;
      return {};
    }
    std::vector<bool> v(count);
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (i % 8 == 0) acc = u8();
      v[i] = (acc >> (i % 8)) & 1;
    }
    return v;
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// FNV-1a 64-bit hash — the store's content checksum and key fingerprint.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t seed = 0xcbf29ce484222325ull) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace radiocast::support
