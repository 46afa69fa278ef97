// client.cpp - the load clients that drive the resident daemon from outside.
//
//   closed: `callers` threads each send one request, wait for its answer,
//           then send the next (a slow daemon receives less load). Used for
//           the compile-cold loop over the daemon's stdio and for warming
//           the catalog over sockets.
//   open:   requests are due on a fixed schedule (i / rate) whatever the
//           daemon does; latency is timed from the *due* time, so a stall
//           counts against every request queued behind it, and the
//           sender's own lateness is recorded separately.
//
// Responses are matched to requests by the daemon's per-connection `line`
// sequence number (1-based count of request frames on that connection),
// which every response - including shed "overloaded" answers - carries.
// Every attempted request produces one record line:
//
//   index \t due_ns \t send_ns \t recv_ns \t response-payload
//
// with times relative to the run's t0 and recv_ns = -1 when unanswered.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.h"

namespace perfbench {

namespace {

struct record {
  std::int64_t due = 0;
  std::int64_t sent = -1;
  std::int64_t received = -1;
  std::string payload;
  bool attempted = false;
  bool done = false;
};

struct link {
  int read_fd = -1;
  int write_fd = -1;
  std::mutex write_mutex; ///< held across seq assignment + frame write
  std::mutex pending_mutex;
  std::uint64_t seq = 0;
  std::unordered_map<std::uint64_t, std::size_t> pending; ///< line -> record
  std::string stats;    ///< the {"op":"stats"} answer, when asked
};

class run_state {
public:
  explicit run_state(std::size_t n) : records(n) {}

  std::vector<record> records;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::atomic<std::size_t> outstanding{0};
  std::atomic<bool> eof{false}; ///< some link reached EOF: no more answers

  /// Registers + sends request `idx` on `l`; false when the write failed.
  bool send(link& l, std::size_t idx, const std::string& text, std::int64_t t0) {
    const std::lock_guard<std::mutex> write_lock(l.write_mutex);
    {
      const std::lock_guard<std::mutex> lock(l.pending_mutex);
      l.pending[++l.seq] = idx;
    }
    outstanding.fetch_add(1);
    records[idx].attempted = true;
    records[idx].sent = now_ns() - t0;
    return write_frame(l.write_fd, text);
  }

  /// Reads response frames from `l` until EOF.
  void read_loop(link& l, std::int64_t t0) {
    frame_reader reader(l.read_fd);
    while (auto payload = reader.next()) {
      const std::int64_t at = now_ns() - t0;
      if (payload->rfind("{\"op\":\"stats\"", 0) == 0) {
        l.stats = std::move(*payload);
        continue;
      }
      if (payload->rfind("{\"op\":", 0) == 0) continue; // shutdown ack, hello
      const long long line = json_int_field(*payload, "line");
      std::size_t idx = 0;
      {
        const std::lock_guard<std::mutex> lock(l.pending_mutex);
        const auto it = l.pending.find(static_cast<std::uint64_t>(line));
        if (it == l.pending.end()) continue; // transport error frame (line 0)
        idx = it->second;
        l.pending.erase(it);
      }
      {
        const std::lock_guard<std::mutex> lock(done_mutex);
        record& r = records[idx];
        r.received = at;
        r.payload = std::move(*payload);
        r.done = true;
      }
      outstanding.fetch_sub(1);
      done_cv.notify_all();
    }
    {
      const std::lock_guard<std::mutex> lock(done_mutex);
      eof = true;
    }
    done_cv.notify_all();
  }

  void write_records(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const record& r = records[i];
      if (!r.attempted) continue;
      out << i << '\t' << r.due << '\t' << r.sent << '\t' << (r.done ? r.received : -1)
          << '\t' << (r.done ? r.payload : std::string()) << '\n';
    }
    if (!out) throw std::runtime_error("failed writing " + path);
  }
};

std::vector<std::unique_ptr<link>> open_links(const args& a, int count) {
  std::vector<std::unique_ptr<link>> links;
  if (a.has("fd-in")) {
    auto l = std::make_unique<link>();
    l->read_fd = static_cast<int>(a.num("fd-in", -1));
    l->write_fd = static_cast<int>(a.num("fd-out", -1));
    links.push_back(std::move(l));
    return links;
  }
  const std::string path = a.need("socket");
  for (int i = 0; i < count; ++i) {
    auto l = std::make_unique<link>();
    l->read_fd = l->write_fd = connect_unix(path);
    if (l->read_fd < 0) throw std::runtime_error("cannot connect to " + path);
    links.push_back(std::move(l));
  }
  return links;
}

void close_write_side(link& l) {
  if (l.read_fd == l.write_fd) ::shutdown(l.write_fd, SHUT_WR);
  else ::close(l.write_fd);
}

} // namespace

int run_closed(const args& a) {
  const std::vector<std::string> requests = read_lines(a.need("requests"));
  const int callers = static_cast<int>(a.num("callers", 4));
  const double seconds = a.num("seconds", -1);
  const auto min_requests = static_cast<std::size_t>(a.num("min-requests", 0));
  auto links = open_links(a, static_cast<int>(a.num("conns", callers)));
  run_state state(requests.size());

  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = seconds > 0 ? t0 + static_cast<std::int64_t>(seconds * 1e9)
                                            : INT64_MAX;
  std::vector<std::thread> readers;
  for (auto& l : links) readers.emplace_back([&state, &l, t0] { state.read_loop(*l, t0); });

  std::atomic<std::size_t> next{0};
  std::atomic<bool> broken{false};
  std::vector<std::thread> workers;
  for (int c = 0; c < callers; ++c) {
    workers.emplace_back([&, c] {
      link& l = *links[static_cast<std::size_t>(c) % links.size()];
      for (;;) {
        const std::size_t idx = next.fetch_add(1);
        if (idx >= requests.size() || broken.load()) return;
        if (now_ns() >= deadline && idx >= min_requests) return;
        state.records[idx].due = now_ns() - t0;
        if (!state.send(l, idx, requests[idx], t0)) {
          broken = true;
          return;
        }
        std::unique_lock<std::mutex> lock(state.done_mutex);
        state.done_cv.wait(lock, [&] {
          return state.records[idx].done || broken.load() || state.eof.load();
        });
        if (!state.records[idx].done) return;
      }
    });
  }
  for (auto& w : workers) w.join();

  const bool finish = a.has("finish"); // stdio: ask for stats, then shut down
  for (auto& l : links) {
    if (finish) {
      const std::lock_guard<std::mutex> lock(l->write_mutex);
      write_frame(l->write_fd, R"({"op":"stats"})");
      write_frame(l->write_fd, R"({"op":"shutdown"})");
    }
    close_write_side(*l);
  }
  for (auto& r : readers) r.join();
  for (auto& l : links) ::close(l->read_fd);

  state.write_records(a.need("out"));
  if (a.has("stats-out")) {
    std::ofstream stats(a.str("stats-out", ""));
    stats << links.front()->stats << '\n';
  }
  return broken ? 1 : 0;
}

int run_open(const args& a) {
  const std::vector<std::string> requests = read_lines(a.need("requests"));
  const double rate = a.num("rate", 1000);
  const double grace_ms = a.num("grace-ms", 1000);
  auto links = open_links(a, static_cast<int>(a.num("conns", 4)));
  run_state state(requests.size());
  if (rate <= 0) throw std::runtime_error("--rate must be positive");

  // t0 is the first due time; connecting happened before it.
  const std::int64_t t0 = now_ns() + 20'000'000;
  const auto period = static_cast<std::int64_t>(1e9 / rate);
  for (std::size_t i = 0; i < requests.size(); ++i)
    state.records[i].due = static_cast<std::int64_t>(i) * period;

  std::vector<std::thread> readers;
  for (auto& l : links) readers.emplace_back([&state, &l, t0] { state.read_loop(*l, t0); });
  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < links.size(); ++c) {
    senders.emplace_back([&, c] {
      link& l = *links[c];
      for (std::size_t i = c; i < requests.size(); i += links.size()) {
        sleep_until_ns(t0 + state.records[i].due);
        if (!state.send(l, i, requests[i], t0)) return;
      }
      close_write_side(l);
    });
  }
  for (auto& s : senders) s.join();

  // Wait for the tail to drain, but never past the grace period: whatever
  // is still unanswered then counts as unanswered.
  const std::int64_t last_due = requests.empty() ? 0 : state.records.back().due;
  const std::int64_t give_up = t0 + last_due + static_cast<std::int64_t>(grace_ms * 1e6);
  {
    std::unique_lock<std::mutex> lock(state.done_mutex);
    while (state.outstanding.load() > 0 && now_ns() < give_up)
      state.done_cv.wait_for(lock, std::chrono::milliseconds(5));
  }
  for (auto& l : links) ::shutdown(l->read_fd, SHUT_RDWR);
  for (auto& r : readers) r.join();
  for (auto& l : links) ::close(l->read_fd);
  state.write_records(a.need("out"));
  return 0;
}

} // namespace perfbench
