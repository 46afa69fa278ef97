// binio.h - little-endian binary serialization for the persistent
// schedule-cache tier (serve/diskcache.h): a growable byte writer, a
// bounds-checked byte reader, and the FNV-1a 64-bit checksum the on-disk
// record format carries.
//
// The reader is built for hostile bytes: every read checks the remaining
// length first and flips a sticky `ok()` flag instead of touching
// out-of-range memory, so a truncated, torn or bit-flipped record decodes
// to "not ok" - never to UB and never to a throw on the serving path. The
// disk tier turns "not ok" into a cache miss (docs/SERVING.md
// "Persistence").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace softsched {

/// FNV-1a 64-bit over `bytes`, optionally chaining from a previous hash.
/// Not cryptographic - it detects corruption (torn writes, bit flips), not
/// adversaries; the threat model of a local cache directory.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes,
                                    std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept;

/// Appends little-endian scalars / length-prefixed strings to a byte
/// string. All integers are written at fixed width regardless of host, so
/// records are byte-identical across machines (cache export/import ships
/// them between hosts).
class byte_writer {
public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// u64 length prefix + raw bytes.
  void str(std::string_view s);
  /// Raw bytes, no prefix (the reader must know the length).
  void raw(std::string_view s) { out_.append(s); }

  [[nodiscard]] const std::string& bytes() const noexcept { return out_; }
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }
  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

  /// Overwrites 8 bytes at `offset` (patching a checksum computed after
  /// the fields it covers were written). `offset + 8` must be <= size().
  void patch_u64(std::size_t offset, std::uint64_t v);

private:
  std::string out_;
};

/// Bounds-checked little-endian reader over a byte view. Any short read
/// (or an over-long string length) sets the sticky failure flag and
/// returns a zero value; callers check ok() once at the end instead of
/// after every field.
class byte_reader {
public:
  explicit byte_reader(std::string_view bytes) : data_(bytes) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  /// Reads a u64 length prefix then that many bytes; fails (empty string)
  /// when fewer remain.
  [[nodiscard]] std::string str();
  /// The next `n` raw bytes as a view into the input; fails (empty view)
  /// when fewer remain.
  [[nodiscard]] std::string_view raw(std::size_t n);

  /// True iff every read so far stayed in bounds.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

private:
  [[nodiscard]] bool take(std::size_t n) noexcept;

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

} // namespace softsched
