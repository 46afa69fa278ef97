// common.h - shared plumbing of perfbench_tool: the monotonic clock, the
// daemon's length-prefixed framing over raw file descriptors, JSONL/TSV
// file helpers and the small argument parser every subcommand uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (comparable across threads of one process).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleeps until the steady clock reads `deadline_ns`.
void sleep_until_ns(std::int64_t deadline_ns);

/// Buffered reader of `<decimal length>\n<payload>\n` frames from one fd.
class frame_reader {
public:
  explicit frame_reader(int fd) : fd_(fd) {}

  /// Next payload, or nullopt at EOF / on a read error / malformed frame.
  std::optional<std::string> next();

private:
  bool fill();
  int fd_;
  std::string buffer_;
  std::size_t pos_ = 0;
};

/// Writes one frame; false when the peer is gone.
bool write_frame(int fd, std::string_view payload);

/// Writes all of `bytes`; false on error.
bool write_all(int fd, std::string_view bytes);

/// Connects to a unix stream socket at `path`; -1 on failure.
[[nodiscard]] int connect_unix(const std::string& path);

/// The integer value of the first `"key":<int>` member in a compact JSON
/// line, or -1. Response lines start with "line", so this is O(1) there.
[[nodiscard]] long long json_int_field(std::string_view line, std::string_view key);

[[nodiscard]] std::vector<std::string> read_lines(const std::string& path);

/// `--name value` and bare `--flag` arguments of one subcommand.
class args {
public:
  args(int argc, char** argv, int first);

  [[nodiscard]] std::string str(const std::string& name, const std::string& fallback) const;
  [[nodiscard]] std::string need(const std::string& name) const;
  [[nodiscard]] double num(const std::string& name, double fallback) const;
  [[nodiscard]] bool has(const std::string& name) const { return values_.count(name) > 0; }

private:
  std::map<std::string, std::string> values_;
};

} // namespace perfbench
