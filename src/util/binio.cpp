#include "util/binio.h"

namespace softsched {

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) noexcept {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void byte_writer::u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

void byte_writer::u32(std::uint32_t v) {
  for (int b = 0; b < 4; ++b) out_.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
}

void byte_writer::u64(std::uint64_t v) {
  for (int b = 0; b < 8; ++b) out_.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
}

void byte_writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void byte_writer::str(std::string_view s) {
  u64(s.size());
  out_.append(s);
}

void byte_writer::patch_u64(std::size_t offset, std::uint64_t v) {
  for (int b = 0; b < 8; ++b)
    out_[offset + static_cast<std::size_t>(b)] =
        static_cast<char>((v >> (8 * b)) & 0xff);
}

bool byte_reader::take(std::size_t n) noexcept {
  if (!ok_ || n > data_.size() - pos_) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t byte_reader::u8() {
  if (!take(1)) return 0;
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t byte_reader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(b)]))
         << (8 * b);
  pos_ += 4;
  return v;
}

std::uint64_t byte_reader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(b)]))
         << (8 * b);
  pos_ += 8;
  return v;
}

std::int64_t byte_reader::i64() { return static_cast<std::int64_t>(u64()); }

std::string byte_reader::str() {
  const std::uint64_t len = u64();
  if (!ok_ || len > data_.size() - pos_) {
    ok_ = false;
    return {};
  }
  std::string s(data_.substr(pos_, static_cast<std::size_t>(len)));
  pos_ += static_cast<std::size_t>(len);
  return s;
}

std::string_view byte_reader::raw(std::size_t n) {
  if (!take(n)) return {};
  const std::string_view v = data_.substr(pos_, n);
  pos_ += n;
  return v;
}

} // namespace softsched
