// packed_ints.h - a width-packed array of signed integers. Each array
// stores its elements at the narrowest of 1, 2, 4 or 8 bytes (two's
// complement, little-endian) that holds its own minimum and maximum, so a
// per-op schedule payload - start cycles in the hundreds, units in single
// digits - costs one or two bytes per value instead of eight. The width is
// a pure function of the values, so equal values pack to equal bytes on
// every host.
//
// serve::schedule_result keeps its start/unit arrays in this form: the RAM
// cache's byte budget counts packed bytes, and the disk tier writes the
// width, the count and the raw bytes (serve/diskcache.h).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace softsched {

class packed_ints {
public:
  using value_type = long long;

  /// Read-only forward iterator; dereferencing decodes one value.
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = long long;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = long long;

    const_iterator() = default;
    const_iterator(const packed_ints* array, std::size_t index) : array_(array), index_(index) {}

    long long operator*() const noexcept { return (*array_)[index_]; }
    const_iterator& operator++() noexcept {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const const_iterator old = *this;
      ++index_;
      return old;
    }
    bool operator==(const const_iterator&) const = default;

  private:
    const packed_ints* array_ = nullptr;
    std::size_t index_ = 0;
  };
  using iterator = const_iterator;

  packed_ints() = default;

  /// Packs `values`. Implicit, so a payload array stays assignable from the
  /// std::vector a scheduler backend fills.
  template <std::signed_integral T>
  packed_ints(const std::vector<T>& values) {
    pack(values.data(), values.size());
  }
  packed_ints(std::initializer_list<long long> values) { pack(values.begin(), values.size()); }

  /// Adopts `raw` as elements of `width` bytes each (the disk tier's
  /// decode). Throws precondition_error unless valid_width(width) and
  /// `raw.size()` is a multiple of it.
  [[nodiscard]] static packed_ints from_raw(unsigned width, std::string_view raw);

  [[nodiscard]] static constexpr bool valid_width(unsigned width) noexcept {
    return width == 1 || width == 2 || width == 4 || width == 8;
  }

  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size() / width_; }
  [[nodiscard]] bool empty() const noexcept { return bytes_.empty(); }
  /// Bytes per element: 1, 2, 4 or 8.
  [[nodiscard]] unsigned width() const noexcept { return width_; }
  /// The packed elements, size() * width() bytes.
  [[nodiscard]] std::string_view raw() const noexcept { return bytes_; }

  /// Element `i` (< size()), sign-extended.
  [[nodiscard]] long long operator[](std::size_t i) const noexcept {
    const auto* p = reinterpret_cast<const unsigned char*>(bytes_.data()) + i * width_;
    switch (width_) {
    case 1: return static_cast<std::int8_t>(p[0]);
    case 2: return static_cast<std::int16_t>(load_le<2>(p));
    case 4: return static_cast<std::int32_t>(load_le<4>(p));
    default: return static_cast<long long>(load_le<8>(p));
    }
  }

  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, size()}; }

  /// out[i] = (*this)[from[i]], at this array's width. Throws
  /// precondition_error unless `from` has size() entries, each < size().
  [[nodiscard]] packed_ints permuted(const std::vector<std::uint32_t>& from) const;

  /// Value equality: same length, same elements (whatever the widths).
  friend bool operator==(const packed_ints& a, const packed_ints& b);

private:
  template <unsigned W>
  static std::uint64_t load_le(const unsigned char* p) noexcept {
    std::uint64_t u = 0;
    for (unsigned b = 0; b < W; ++b) u |= static_cast<std::uint64_t>(p[b]) << (8 * b);
    return u;
  }

  template <class T>
  void pack(const T* values, std::size_t n) {
    long long lo = 0;
    long long hi = 0;
    for (std::size_t i = 0; i < n; ++i) {
      lo = std::min<long long>(lo, values[i]);
      hi = std::max<long long>(hi, values[i]);
    }
    width_ = width_for(lo, hi);
    bytes_.resize(n * width_);
    for (std::size_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::uint64_t>(static_cast<long long>(values[i]));
      for (unsigned b = 0; b < width_; ++b)
        bytes_[i * width_ + b] = static_cast<char>((u >> (8 * b)) & 0xff);
    }
  }

  /// Narrowest width whose signed range holds [lo, hi].
  static unsigned width_for(long long lo, long long hi) noexcept;

  std::string bytes_;
  unsigned char width_ = 1;
};

} // namespace softsched
