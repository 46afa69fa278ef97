#include "serve/daemon.h"

#include "serve/protocol.h"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/json.h"
#include "util/json_parse.h"

namespace softsched::serve {

namespace {

using clock_type = std::chrono::steady_clock;

double millis_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

void sleep_ms(double ms) {
  if (ms > 0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Estimated bytes of one fingerprint-set node (value, link, bucket slot).
constexpr std::size_t fingerprint_bytes = 32;

unsigned parse_fault_index(std::string_view text, std::string_view rule) {
  bool ok = !text.empty() && text.size() <= 6;
  unsigned value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    value = value * 10 + static_cast<unsigned>(c - '0');
  }
  SOFTSCHED_EXPECT(ok, "fault spec: bad target index in rule '" + std::string(rule) + "'");
  return value;
}

double parse_fault_delay(std::string_view text, std::string_view rule) {
  bool ok = !text.empty();
  double value = 0;
  if (ok) {
    try {
      std::size_t used = 0;
      value = std::stod(std::string(text), &used);
      ok = used == text.size() && value >= 0;
    } catch (const std::exception&) {
      ok = false;
    }
  }
  SOFTSCHED_EXPECT(ok, "fault spec: bad delay_ms in rule '" + std::string(rule) + "'");
  return value;
}

} // namespace

fault_plan fault_plan::parse(std::string_view spec) {
  fault_plan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::size_t end = comma == std::string_view::npos ? spec.size() : comma;
    const std::string_view rule = spec.substr(pos, end - pos);
    pos = end + 1;
    if (rule.empty()) continue;

    std::vector<std::string_view> segments;
    std::size_t seg = 0;
    while (seg <= rule.size()) {
      const std::size_t colon = rule.find(':', seg);
      const std::size_t seg_end = colon == std::string_view::npos ? rule.size() : colon;
      segments.push_back(rule.substr(seg, seg_end - seg));
      seg = seg_end + 1;
    }
    SOFTSCHED_EXPECT(segments.size() >= 2,
                     "fault spec: rule '" + std::string(rule) +
                         "' needs <target>:<action> (e.g. slot=0:delay_ms=5)");

    const std::string_view target = segments[0];
    const bool is_io = target.substr(0, 3) == "io=";
    const bool is_conn = target.substr(0, 5) == "conn=";
    if (is_conn) {
      // Connection rules have their own action vocabulary: drop / stall_ms.
      conn_fault_action action;
      for (std::size_t a = 1; a < segments.size(); ++a) {
        const std::string_view part = segments[a];
        if (part == "drop") {
          action.drop = true;
        } else if (part.substr(0, 9) == "stall_ms=") {
          action.stall_ms = parse_fault_delay(part.substr(9), rule);
        } else {
          SOFTSCHED_EXPECT(false, "fault spec: unknown conn action '" + std::string(part) +
                                      "' in rule '" + std::string(rule) +
                                      "' (expected drop or stall_ms=<float>)");
        }
      }
      plan.conns[parse_fault_index(target.substr(5), rule)] = action;
      continue;
    }
    disk_fault_action action; // superset: slot/cache rules use delay/fail only
    for (std::size_t a = 1; a < segments.size(); ++a) {
      const std::string_view part = segments[a];
      if (part == "fail") {
        action.fail = true;
      } else if (part == "torn") {
        SOFTSCHED_EXPECT(is_io, "fault spec: action 'torn' only applies to io=<n> targets "
                                "(rule '" + std::string(rule) + "')");
        action.torn = true;
      } else if (part.substr(0, 9) == "delay_ms=") {
        action.delay_ms = parse_fault_delay(part.substr(9), rule);
      } else {
        SOFTSCHED_EXPECT(false, "fault spec: unknown action '" + std::string(part) +
                                    "' in rule '" + std::string(rule) + "'");
      }
    }
    if (target.substr(0, 5) == "slot=") {
      plan.slots[parse_fault_index(target.substr(5), rule)] =
          fault_action{action.delay_ms, action.fail};
    } else if (target == "cache") {
      plan.cache = fault_action{action.delay_ms, action.fail};
    } else if (is_io) {
      plan.io.ops[parse_fault_index(target.substr(3), rule)] = action;
    } else {
      SOFTSCHED_EXPECT(false, "fault spec: unknown target '" + std::string(target) +
                                  "' (expected slot=<n>, cache, io=<n> or conn=<n>)");
    }
  }
  return plan;
}

fault_plan fault_plan::from_env() {
  const char* spec = std::getenv("SOFTSCHED_INJECT");
  if (spec == nullptr || *spec == '\0') return {};
  return parse(spec);
}

service::service(const service_options& options)
    : options_(options),
      jobs_(options.jobs < 1 ? thread_pool::hardware_workers()
                             : static_cast<unsigned>(options.jobs)),
      cache_(options.cache_bytes),
      started_at_(clock_type::now()) {
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  if (!options_.cache_dir.empty() && options_.disk_cache_bytes > 0) {
    disk_cache_options disk;
    disk.directory = options_.cache_dir;
    disk.byte_budget = options_.disk_cache_bytes;
    disk.faults = options_.faults.io;
    disk_ = std::make_unique<disk_cache>(disk);
  }
  pool_ = std::make_unique<thread_pool>(jobs_);
  const auto mode = options_.arena ? sched::arena_mode::on : sched::arena_mode::off;
  const std::size_t block = options_.arena_block_bytes > 0
                                ? options_.arena_block_bytes
                                : util::arena::default_block_bytes;
  contexts_.reserve(jobs_ + 1);
  for (unsigned i = 0; i <= jobs_; ++i)
    contexts_.push_back(std::make_unique<sched::run_context>(mode, block));
}

sched::run_context& service::context_for_current_thread() noexcept {
  const int worker = thread_pool::current_worker_index();
  return *contexts_[worker >= 0 ? static_cast<std::size_t>(worker) : jobs_];
}

service::~service() {
  drain();
  pool_.reset();
}

bool service::submit(std::uint64_t seq, std::string text, callback done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t depth = queue_depth_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (depth > options_.queue_capacity) {
    // Shed, don't queue: the rollback leaves admission state exactly as if
    // this request never arrived, and the caller answers "overloaded".
    queue_depth_.fetch_sub(1, std::memory_order_acq_rel);
    overloaded_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::size_t peak = peak_queue_depth_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !peak_queue_depth_.compare_exchange_weak(peak, depth, std::memory_order_relaxed)) {
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  const auto admitted_at = clock_type::now();
  pool_->submit([this, seq, text = std::move(text), done = std::move(done), admitted_at] {
    process(seq, text, done, admitted_at);
  });
  return true;
}

response service::overloaded_response(std::uint64_t seq) const {
  response r;
  r.line = seq;
  r.id = "line" + std::to_string(seq);
  r.error = "overloaded";
  r.retry_after_ms = options_.retry_after_ms;
  return r;
}

void service::complete(response r, const callback& done,
                       clock_type::time_point admitted_at) {
  latency_.record(millis_since(admitted_at));
  if (done) done(std::move(r));
  {
    // completed_ advances under the drain mutex so drain()'s predicate and
    // the notify can never miss each other.
    const std::lock_guard<std::mutex> lock(drain_mutex_);
    completed_.fetch_add(1, std::memory_order_release);
    queue_depth_.fetch_sub(1, std::memory_order_acq_rel);
  }
  drained_.notify_all();
}

void service::drain() {
  const std::uint64_t target = admitted_.load(std::memory_order_acquire);
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock,
                [&] { return completed_.load(std::memory_order_acquire) >= target; });
}

void service::wait_for_room() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock, [&] {
    return queue_depth_.load(std::memory_order_acquire) < options_.queue_capacity;
  });
}

source_info service::lookup_source(const request& req,
                                   std::optional<source_design>& built) {
  const std::string sig = req.source_signature();
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    const auto it = source_memo_.find(sig);
    if (it != source_memo_.end()) {
      ++memo_hits_;
      return it->second;
    }
  }
  // Hash outside the lock (the expensive part); first publisher wins, a
  // concurrent duplicate hash of the same source is wasted work, not a bug.
  source_info info = hash_request_source(req, built);
  const std::uint64_t fingerprint = std::hash<std::string>{}(sig);
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  // Every memo entry's fingerprint is in the set, so its size bounds both.
  if (seen_fingerprints_.size() > memo_entry_limit ||
      memo_bytes_ > std::max(options_.cache_bytes, memo_min_bytes)) {
    source_memo_.clear();
    seen_fingerprints_.clear();
    memo_bytes_ = 0;
  }
  if (seen_fingerprints_.insert(fingerprint).second) {
    memo_bytes_ += fingerprint_bytes; // first sighting: remember, don't keep
    return info;
  }
  const auto [it, inserted] = source_memo_.try_emplace(sig, info);
  if (inserted) {
    ++memo_admitted_;
    memo_bytes_ += sig.size() + info.error.size() +
                   info.canonical_of.size() * sizeof(std::uint32_t) + sizeof(source_info) + 64;
  }
  return info;
}

void service::process(std::uint64_t seq, const std::string& text, const callback& done,
                      clock_type::time_point admitted_at) {
  response r;
  r.line = seq;
  r.id = "line" + std::to_string(seq);
  try {
    // -- worker-slot injection: a pure function of the sequence number, so
    //    tests can target "the request that lands on slot 0" regardless of
    //    which pool thread actually runs it ---------------------------------
    const unsigned slot = static_cast<unsigned>((seq > 0 ? seq - 1 : 0) % jobs_);
    const auto slot_rule = options_.faults.slots.find(slot);
    if (slot_rule != options_.faults.slots.end()) {
      sleep_ms(slot_rule->second.delay_ms);
      if (slot_rule->second.fail) {
        r.error = "injected fault: worker slot " + std::to_string(slot);
        errors_.fetch_add(1, std::memory_order_relaxed);
        complete(std::move(r), done, admitted_at);
        return;
      }
    }

    // -- parse ---------------------------------------------------------------
    request req;
    try {
      req = parse_request_line(text);
    } catch (const json_error& e) {
      r.error = e.what();
      errors_.fetch_add(1, std::memory_order_relaxed);
      complete(std::move(r), done, admitted_at);
      return;
    }
    if (!req.id.empty()) r.id = req.id;
    r.backend = req.backend;

    // -- canonical hash (memoized) + cache key -------------------------------
    std::optional<source_design> built;
    const source_info source = lookup_source(req, built);
    if (!source.error.empty()) {
      r.error = source.error;
      errors_.fetch_add(1, std::memory_order_relaxed);
      complete(std::move(r), done, admitted_at);
      return;
    }
    r.key = schedule_key_for(req, source.digest);

    // -- join or lead the in-flight computation ------------------------------
    std::shared_future<flight_ptr> joined;
    std::promise<flight_ptr> promise;
    bool leader = false;
    {
      const std::lock_guard<std::mutex> lock(flight_mutex_);
      const auto it = flights_.find(r.key);
      if (it != flights_.end()) {
        joined = it->second;
      } else {
        joined = promise.get_future().share();
        flights_.emplace(r.key, joined);
        leader = true;
      }
    }

    if (!leader) {
      // A flight exists only while its leader is actively running (it
      // registers inside its own job), so this wait always terminates. The
      // result comes straight off the flight - never a cache re-lookup,
      // which would miss when the value was oversize-rejected.
      const flight_ptr outcome = joined.get();
      if (!outcome->error.empty()) {
        r.error = outcome->error;
        errors_.fetch_add(1, std::memory_order_relaxed);
      } else {
        r.result = result_to_source_order(*outcome->result, source.canonical_of);
        deduped_.fetch_add(1, std::memory_order_relaxed);
      }
      complete(std::move(r), done, admitted_at);
      return;
    }

    // -- leader: cache consult, compute on miss, publish ---------------------
    flight f;
    bool from_cache = false;
    double compute_ms = 0;
    try {
      // -- cache injection: a failed RAM tier is *unavailable*, not fatal -
      //    lookups miss and inserts are dropped, so requests keep being
      //    served (recomputed), just degraded.
      const fault_action cache_fault = options_.faults.cache.value_or(fault_action{});
      const bool cache_available = !cache_fault.fail;
      sleep_ms(cache_fault.delay_ms);
      schedule_cache::result_ptr cached;
      if (cache_available) cached = cache_.lookup(r.key);
      if (cached == nullptr && disk_ != nullptr) {
        // Read-through: a RAM miss consults the persistent tier; a disk
        // hit is promoted so the next ask is a RAM hit. An injected RAM
        // tier failure only blocks the promotion, never the disk read.
        cached = disk_->lookup(r.key);
        if (cached != nullptr && cache_available) cache_.insert(r.key, cached);
      }
      if (cached != nullptr) {
        from_cache = true;
        f.result = std::move(cached);
      } else {
        const auto t0 = clock_type::now();
        if (!built) built.emplace(req); // a memo hit skipped the build
        f.result = std::make_shared<const schedule_result>(compute_canonical_schedule(
            req, *built, source.canonical_of, context_for_current_thread()));
        compute_ms = millis_since(t0);
        if (cache_available) cache_.insert(r.key, f.result);
        // Synchronous: the record is on disk before any waiter sees it.
        if (disk_ != nullptr) disk_->store(r.key, f.result);
      }
    } catch (const std::exception& e) {
      f.error = e.what();
      f.result = nullptr;
    }
    const flight_ptr published = std::make_shared<const flight>(std::move(f));
    {
      const std::lock_guard<std::mutex> lock(flight_mutex_);
      flights_.erase(r.key);
    }
    promise.set_value(published);

    if (!published->error.empty()) {
      r.error = published->error;
      errors_.fetch_add(1, std::memory_order_relaxed);
    } else {
      r.result = result_to_source_order(*published->result, source.canonical_of);
      if (from_cache) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        computed_.fetch_add(1, std::memory_order_relaxed);
        r.ms = compute_ms;
      }
    }
    complete(std::move(r), done, admitted_at);
  } catch (const std::exception& e) {
    // Pool jobs must not throw; any unexpected escape becomes an error
    // response so the request still completes and drain() still terminates.
    r.error = std::string("serve: internal error: ") + e.what();
    r.result = {};
    errors_.fetch_add(1, std::memory_order_relaxed);
    complete(std::move(r), done, admitted_at);
  }
}

service_stats service::stats() const {
  service_stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.computed = computed_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.deduped = deduped_.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  s.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);
  s.uptime_ms = millis_since(started_at_);
  s.qps = s.uptime_ms > 0 ? static_cast<double>(s.completed) / (s.uptime_ms / 1e3) : 0;
  s.p50_ms = latency_.percentile(50);
  s.p95_ms = latency_.percentile(95);
  s.p99_ms = latency_.percentile(99);
  const std::uint64_t served = s.completed - std::min(s.errors, s.completed);
  s.hit_rate = served > 0
                   ? static_cast<double>(s.cache_hits + s.deduped) / static_cast<double>(served)
                   : 0;
  const cache_counters c = cache_.counters();
  s.cache_entries = c.entries;
  s.cache_bytes = c.bytes;
  s.cache_evictions = c.evictions;
  s.cache_rejected_oversize = c.rejected_oversize;
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    s.memo_entries = source_memo_.size();
    s.memo_bytes = memo_bytes_;
    s.memo_hits = memo_hits_;
    s.memo_admitted = memo_admitted_;
  }
  if (disk_ != nullptr) {
    const disk_cache_counters d = disk_->counters();
    s.disk_enabled = true;
    s.disk_degraded = d.degraded;
    s.disk_hits = d.hits;
    s.disk_misses = d.misses;
    s.disk_writes = d.writes;
    s.disk_evictions = d.evictions;
    s.disk_corrupt_dropped = d.corrupt_dropped;
    s.disk_io_errors = d.io_errors;
    s.disk_entries = d.entries;
    s.disk_bytes = d.bytes;
    s.disk_recovery_scan_ms = d.recovery_scan_ms;
    s.disk_recovered_entries = d.recovered_entries;
  }
  return s;
}

namespace {

std::string render_response(const response& r, bool emit_schedule) {
  std::ostringstream oss;
  write_response_line(oss, r, emit_schedule);
  return std::move(oss).str();
}

/// Serializes response frames either immediately (streaming) or through a
/// reorder buffer that releases strictly by sequence number (input-order
/// mode). Control frames (stats, transport errors, the shutdown ack)
/// always bypass the reorder buffer - they answer "now", not "in turn".
/// A failed write (peer gone) is sticky: subsequent frames are counted as
/// produced but silently discarded, so workers finishing after the client
/// died still complete and the connection still drains.
struct frame_writer {
  frame_writer(byte_stream& o, bool order_responses) : out(o), ordered(order_responses) {}

  byte_stream& out;
  bool ordered;
  std::mutex mutex;
  std::uint64_t next_seq = 1;
  std::map<std::uint64_t, std::string> held;
  std::uint64_t written = 0;
  bool failed = false;

  void send(std::string_view payload) {
    if (!failed && !write_frame(out, payload)) failed = true;
    ++written;
  }

  void emit(std::uint64_t seq, std::string payload) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!ordered) {
      send(payload);
      return;
    }
    held.emplace(seq, std::move(payload));
    while (!held.empty() && held.begin()->first == next_seq) {
      send(held.begin()->second);
      held.erase(held.begin());
      ++next_seq;
    }
  }

  void control(std::string_view payload) {
    const std::lock_guard<std::mutex> lock(mutex);
    send(payload);
  }
};

/// Per-connection drain: serve_connection must wait for *its own* admitted
/// requests only, so one dead or slow connection can never make another
/// connection's drain wait on it (service::drain() is global). Incremented
/// before submit, decremented by the completion callback (or by the
/// submitter itself when the request was shed and the callback will never
/// fire).
struct pending_gate {
  std::mutex mutex;
  std::condition_variable done;
  std::size_t outstanding = 0;

  void arm() {
    const std::lock_guard<std::mutex> lock(mutex);
    ++outstanding;
  }
  // Notifies under the lock: once wait() sees outstanding == 0 it returns
  // and the owner destroys the gate, so a notify after unlocking could
  // touch a dead condition variable.
  void disarm() {
    const std::lock_guard<std::mutex> lock(mutex);
    --outstanding;
    done.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return outstanding == 0; });
  }
};

} // namespace

connection_summary serve_connection(byte_stream& stream, service& svc,
                                    const connection_options& options,
                                    connection_counters* counters) {
  connection_summary summary;
  frame_writer writer(stream, options.ordered);
  pending_gate pending;
  const bool emit_schedule = options.emit_schedule;
  std::uint64_t seq = 0;

  for (;;) {
    frame_read frame = read_frame(stream, options.limits);
    if (frame.status == frame_status::eof) break;
    if (frame.status == frame_status::error) {
      // Framing is unrecoverable on this stream - after a malformed frame
      // we no longer know where the next one starts, so resynchronizing
      // silently would risk misattributing payloads. Answer once, stop
      // reading *this connection*, drain it, close. Other connections on
      // the same service are untouched.
      summary.end = connection_end::transport_error;
      if (counters != nullptr)
        counters->transport_errors.fetch_add(1, std::memory_order_relaxed);
      response r;
      r.id = "transport";
      r.error = frame.error;
      writer.control(render_response(r, emit_schedule));
      break;
    }
    ++summary.frames;

    const control_frame control = classify_control(frame.payload);
    if (control.kind != control_kind::none) {
      switch (control.kind) {
      case control_kind::hello:
        writer.control(render_hello());
        break;
      case control_kind::stats: {
        connection_counters_snapshot conns =
            counters != nullptr ? snapshot(*counters) : connection_counters_snapshot{};
        connection_view self;
        self.frames = summary.frames;
        self.requests = summary.requests;
        self.bytes_in = stream.bytes_in();
        self.bytes_out = stream.bytes_out();
        self.transport = stream.label();
        // This connection's bytes fold into the aggregate only at close;
        // count the live ones so stats never under-reports the asker.
        conns.bytes_in += self.bytes_in;
        conns.bytes_out += self.bytes_out;
        writer.control(render_stats(svc.stats(), conns, self));
        break;
      }
      case control_kind::shutdown:
        summary.end = connection_end::shutdown_op;
        break; // drain below; the ack is this connection's final frame
      default:
        writer.control(render_unknown_op(control));
        break;
      }
      if (summary.end == connection_end::shutdown_op) break;
      continue;
    }

    const std::uint64_t this_seq = ++seq;
    ++summary.requests;
    pending.arm();
    const bool admitted = svc.submit(
        this_seq, std::move(frame.payload),
        [&writer, &pending, emit_schedule](response r) {
          writer.emit(r.line, render_response(r, emit_schedule));
          pending.disarm();
        });
    if (!admitted) {
      pending.disarm();
      writer.emit(this_seq, render_response(svc.overloaded_response(this_seq), emit_schedule));
    }
  }

  // Graceful drain: every request admitted on this connection answers
  // before it closes, whatever ended the read loop (EOF, shutdown,
  // transport error). Records are stored before their responses leave,
  // so nothing is left to flush.
  pending.wait();
  if (summary.end == connection_end::shutdown_op) writer.control(render_shutdown_ack());
  summary.responses = writer.written;
  summary.write_failed = writer.failed;
  if (counters != nullptr) {
    counters->bytes_in.fetch_add(stream.bytes_in(), std::memory_order_relaxed);
    counters->bytes_out.fetch_add(stream.bytes_out(), std::memory_order_relaxed);
  }
  return summary;
}

daemon_summary run_daemon(std::istream& in, std::ostream& out,
                          const daemon_options& options) {
  daemon_summary summary;
  service svc(options.service);
  iostream_byte_stream stream(&in, &out);
  connection_counters counters;
  counters.transport = "stdio";
  counters.accepted.store(1, std::memory_order_relaxed);
  counters.active.store(1, std::memory_order_relaxed);

  connection_options copt;
  copt.ordered = options.ordered;
  copt.emit_schedule = options.service.emit_schedule;
  copt.limits = options.limits;
  const connection_summary conn = serve_connection(stream, svc, copt, &counters);
  // The connection gate releases when the last callback returns; the
  // service-level drain additionally orders the counter updates behind it,
  // so summary.stats below is a settled snapshot.
  svc.drain();

  counters.active.store(0, std::memory_order_relaxed);
  counters.closed.store(1, std::memory_order_relaxed);
  summary.frames = conn.frames;
  summary.requests = conn.requests;
  summary.responses = conn.responses;
  summary.shutdown_requested = conn.end == connection_end::shutdown_op;
  summary.transport_error = conn.end == connection_end::transport_error;
  summary.stats = svc.stats();
  summary.conns = snapshot(counters);
  return summary;
}

namespace {

/// run_batch's reorder buffer. Response i is serialized by the thread
/// that completes it, then waits in slot i % size until every earlier one
/// is written; whichever thread completes the next response in input
/// order hands it and every ready one behind it to the sink - under the
/// lock, since sink calls must stay in order - so the reader never wakes
/// per response. At most `size` responses are unwritten at a time, so no
/// two live ones share a slot.
class batch_window {
public:
  batch_window(std::size_t size, bool emit_schedule, const response_sink& sink)
      : slots_(size), emit_schedule_(emit_schedule), sink_(sink) {}

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  void put(std::uint64_t index, response r) {
    // Serialized outside the lock, into a per-thread stream: constructing
    // an ostringstream per response would cost more than the JSON itself.
    thread_local std::ostringstream buffer;
    buffer.str(std::string());
    write_response_line(buffer, r, emit_schedule_);
    std::string line = std::move(buffer).str();
    const std::lock_guard<std::mutex> lock(mutex_);
    slots_[index % slots_.size()].emplace(std::move(r), std::move(line));
    for (;;) {
      std::optional<std::pair<response, std::string>>& next =
          slots_[written_ % slots_.size()];
      if (!next.has_value()) break;
      sink_(next->first, next->second);
      next.reset();
      ++written_;
    }
    // Notified under the lock: once woken, the reader may return and
    // destroy this window before a notify outside it would finish.
    if (written_ >= resume_at_) room_.notify_one();
  }

  /// Blocks until `count` responses are written; returns how many are.
  std::uint64_t wait_written(std::uint64_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    resume_at_ = count;
    room_.wait(lock, [&] { return written_ >= count; });
    resume_at_ = no_waiter;
    return written_;
  }

private:
  static constexpr std::uint64_t no_waiter = ~std::uint64_t{0};

  std::mutex mutex_;
  std::condition_variable room_;
  std::vector<std::optional<std::pair<response, std::string>>> slots_;
  bool emit_schedule_;
  const response_sink& sink_;
  std::uint64_t written_ = 0;
  std::uint64_t resume_at_ = no_waiter;
};

} // namespace

std::uint64_t run_batch(std::istream& in, service& svc, const response_sink& sink) {
  batch_window window(svc.options().queue_capacity, svc.options().emit_schedule, sink);
  std::uint64_t submitted = 0;
  std::uint64_t written = 0; // as of the last wait: a lower bound
  try {
    std::string text;
    std::uint64_t line = 0;
    while (std::getline(in, text)) {
      ++line;
      if (text.empty()) continue;
      if (submitted - written >= window.size()) // full: wait until half drained
        written = window.wait_written(submitted - window.size() / 2);
      svc.wait_for_room();
      const std::uint64_t index = submitted++;
      if (!svc.submit(line, std::move(text),
                      [&window, index](response r) { window.put(index, std::move(r)); }))
        window.put(index, svc.overloaded_response(line)); // a shared service shed it
    }
    (void)window.wait_written(submitted);
  } catch (...) {
    svc.drain(); // no callback may outlive the window it writes into
    throw;
  }
  return submitted;
}

} // namespace softsched::serve
