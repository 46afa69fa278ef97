#include "common.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

void sleep_until_ns(std::int64_t deadline_ns) {
  const std::int64_t wait = deadline_ns - now_ns();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

bool frame_reader::fill() {
  if (pos_ > 0 && pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  }
  char chunk[65536];
  for (;;) {
    const ssize_t got = ::read(fd_, chunk, sizeof chunk);
    if (got > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(got));
      return true;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;
  }
}

std::optional<std::string> frame_reader::next() {
  std::size_t newline;
  while ((newline = buffer_.find('\n', pos_)) == std::string::npos)
    if (!fill()) return std::nullopt;
  const std::string digits = buffer_.substr(pos_, newline - pos_);
  if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  const std::size_t length = std::strtoull(digits.c_str(), nullptr, 10);
  const std::size_t start = newline + 1;
  while (buffer_.size() < start + length + 1)
    if (!fill()) return std::nullopt;
  std::string payload = buffer_.substr(start, length);
  pos_ = start + length + 1;
  if (pos_ > (1u << 20)) { // keep the buffer from growing without bound
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  return payload;
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t put = ::write(fd, bytes.data(), bytes.size());
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(put));
  }
  return true;
}

bool write_frame(int fd, std::string_view payload) {
  std::string frame = std::to_string(payload.size());
  frame += '\n';
  frame += payload;
  frame += '\n';
  return write_all(fd, frame);
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

long long json_int_field(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return -1;
  std::size_t i = at + needle.size();
  long long value = 0;
  bool any = false;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    value = value * 10 + (line[i] - '0');
    any = true;
    ++i;
  }
  return any ? value : -1;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(std::move(line));
  return lines;
}

args::args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0) throw std::runtime_error("unexpected argument " + name);
    name.erase(0, 2);
    if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0)
      values_[name] = argv[++i];
    else
      values_[name] = "";
  }
}

std::string args::str(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::string args::need(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::runtime_error("missing --" + name);
  return it->second;
}

double args::num(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stod(it->second);
}

} // namespace perfbench
