#include "util/packed_ints.h"

#include <cstring>
#include <limits>

#include "util/check.h"

namespace softsched {

unsigned packed_ints::width_for(long long lo, long long hi) noexcept {
  const auto fits = [&](auto narrow) {
    using limits = std::numeric_limits<decltype(narrow)>;
    return lo >= limits::min() && hi <= limits::max();
  };
  if (fits(std::int8_t{})) return 1;
  if (fits(std::int16_t{})) return 2;
  if (fits(std::int32_t{})) return 4;
  return 8;
}

packed_ints packed_ints::from_raw(unsigned width, std::string_view raw) {
  SOFTSCHED_EXPECT(valid_width(width) && raw.size() % width == 0,
                   "packed_ints: bad width " + std::to_string(width) + " for " +
                       std::to_string(raw.size()) + " bytes");
  packed_ints out;
  out.width_ = static_cast<unsigned char>(width);
  out.bytes_ = raw;
  return out;
}

packed_ints packed_ints::permuted(const std::vector<std::uint32_t>& from) const {
  const std::size_t n = size();
  SOFTSCHED_EXPECT(from.size() == n, "packed_ints: permutation size mismatch");
  packed_ints out;
  out.width_ = width_;
  out.bytes_.resize(bytes_.size());
  for (std::size_t i = 0; i < n; ++i) {
    SOFTSCHED_EXPECT(from[i] < n, "packed_ints: permutation index out of range");
    std::memcpy(out.bytes_.data() + i * width_, bytes_.data() + from[i] * std::size_t{width_},
                width_);
  }
  return out;
}

bool operator==(const packed_ints& a, const packed_ints& b) {
  if (a.width_ == b.width_) return a.bytes_ == b.bytes_;
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

} // namespace softsched
