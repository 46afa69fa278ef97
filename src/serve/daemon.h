// daemon.h - the resident scheduling service and its two front ends. There
// is one request pipeline in the repository, service::process; the batch
// CLI and the daemon are thin adapters over it, so they cannot drift apart.
//
// Three layers:
//
//   * `service` - the transport-free core. submit() runs admission control
//     (a bounded queue; at capacity the request is shed immediately with
//     `"error":"overloaded"` + a retry_after_ms hint instead of queueing
//     without bound), then hands the request to the worker pool: parse ->
//     memoized canonical hash (a design enters the memo on its second
//     sighting) -> in-flight dedup (concurrent identical requests coalesce
//     onto one computation via a shared future - the follower receives the
//     leader's result directly, so it stays correct even when the cache
//     rejected the value as oversize) -> LRU schedule cache -> disk tier ->
//     scheduler backend. Responses stream back through a per-request
//     callback as they complete; drain() blocks until every admitted
//     request has responded. Live counters and a lock-light latency
//     histogram (serve/metrics.h) feed stats().
//
//   * `run_batch` - the JSONL front end (--serve-batch): one request per
//     input line, submitted under its line number, answered in input order
//     through a reorder buffer. It keeps at most queue_capacity requests
//     submitted-but-unwritten, so neither the service queue nor the buffer
//     grows with the input, and on a service it does not share no request
//     is ever shed.
//
//   * `run_daemon` - the framed front end (--serve): reads
//     `<count>\n<payload>\n` frames (serve/transport.h) from a stream,
//     sniffs control ops ({"op":"stats"} / {"op":"shutdown"}), submits
//     everything else to the service, and writes response frames either as
//     they complete (streaming, the default) or in input order
//     (--serve-ordered: byte-identical payloads to --serve-batch). EOF,
//     shutdown and transport errors all end in the same graceful drain:
//     every admitted request gets its response before the daemon returns.
//
// Fault injection: a fault_plan (usually parsed from the SOFTSCHED_INJECT
// environment knob) deterministically delays or fails chosen *worker
// slots* (a request's slot is (seq - 1) % jobs - a pure function of the
// submission sequence, independent of which pool thread actually runs it)
// and the *RAM cache tier* (a failed cache is treated as unavailable:
// lookups miss, inserts are dropped). This exists only in the serve layer,
// only to make overload, slow-consumer and mid-drain-shutdown paths
// deterministic under test; the scheduling math is never perturbed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serve/cache.h"
#include "serve/diskcache.h"
#include "serve/engine.h"
#include "serve/metrics.h"
#include "serve/transport.h"
#include "util/thread_pool.h"

namespace softsched::serve {

/// What an injection rule does to its target: delay it, fail it, or both
/// (delay first, then fail).
struct fault_action {
  double delay_ms = 0;
  bool fail = false;
};

/// What a `conn=<n>` rule does to the Nth accepted connection: stall it
/// before serving, drop it at accept, or both (stall first, then drop).
struct conn_fault_action {
  double stall_ms = 0;
  bool drop = false;
};

/// Deterministic fault-injection plan for the serve layer. Spec grammar
/// (the SOFTSCHED_INJECT value): comma-separated rules, each
/// `<target>:<action>[:<action>...]` with targets `slot=<n>` / `cache`
/// / `io=<n>` / `conn=<n>` and actions `delay_ms=<float>` / `fail` /
/// `torn` (io only) / `stall_ms=<float>` / `drop` (conn only), e.g.
///
///   SOFTSCHED_INJECT="slot=0:delay_ms=5,cache:fail,io=2:torn,conn=2:drop"
///
/// A failed worker slot turns its requests into `"error":"injected fault:
/// worker slot <n>"` responses; a failed `cache` (the RAM tier) is
/// unavailable (every lookup misses, every insert is dropped) - degraded,
/// never crashed. An `io=<n>` rule targets the Nth disk-tier record
/// operation (1-based, counting every record read/write attempt): `fail`
/// reports an I/O error (the disk tier degrades to RAM-only), `torn` makes
/// a write persist only a prefix while reporting success (the power-loss
/// shape), and `delay_ms` stalls the operation - holding the worker that
/// stores the record under the disk-tier mutex, which is how the CI
/// kill-mid-write leg pins its SIGKILL to a deterministic point.
/// A `conn=<n>` rule targets the Nth connection a socket listener accepts
/// (1-based, counting shed connections too): `drop` closes it without
/// reading a byte (the mid-flight client-death shape, server side) and
/// `stall_ms` parks it before its first read while it holds an active
/// slot - which is how tests pin the --max-conns shed boundary.
struct fault_plan {
  std::unordered_map<unsigned, fault_action> slots;
  std::optional<fault_action> cache; ///< the one RAM tier; unset = no rule
  std::unordered_map<unsigned, conn_fault_action> conns;
  disk_fault_plan io; ///< forwarded to the disk tier (serve/diskcache.h)

  [[nodiscard]] bool empty() const noexcept {
    return slots.empty() && !cache && conns.empty() && io.empty();
  }

  /// Parses a spec string; throws precondition_error on grammar errors
  /// (unknown target, unknown action, non-numeric index/delay).
  [[nodiscard]] static fault_plan parse(std::string_view spec);

  /// parse(getenv("SOFTSCHED_INJECT")); empty plan when unset/empty.
  [[nodiscard]] static fault_plan from_env();
};

struct service_options {
  int jobs = 0;                          ///< worker threads; < 1 = hardware_workers()
  std::size_t cache_bytes = 64ull << 20; ///< schedule-cache byte budget
  std::size_t queue_capacity = 256; ///< admitted-but-unfinished bound (>= 1)
  bool emit_schedule = true;        ///< include start/unit arrays in responses
  double retry_after_ms = 10;       ///< backpressure hint on shed requests
  fault_plan faults;                ///< empty = no injection

  // Persistent tier (docs/SERVING.md "Persistence"): enabled iff cache_dir
  // is non-empty and disk_cache_bytes > 0. RAM misses read through to disk
  // (hits are promoted into the RAM tier); the worker that computes a
  // result stores it on disk before the response leaves.
  std::string cache_dir;
  std::size_t disk_cache_bytes = 0;

  // Per-worker scheduling arenas (docs/DESIGN.md §8): off = the
  // cross-validated heap baseline; the mode can never change a response
  // byte, only allocation traffic and `ms`.
  bool arena = true;
  std::size_t arena_block_bytes = 0; ///< 0 = util::arena::default_block_bytes
};

/// The resident scheduling service: bounded-queue admission, streaming
/// completion callbacks, graceful drain. Thread-safe: submit() may be
/// called from any number of client threads.
class service {
public:
  /// Completion callback: fires exactly once per admitted request, on a
  /// worker thread, when its response is ready. Must not throw.
  using callback = std::function<void(response)>;

  explicit service(const service_options& options = {});

  /// Drains admitted work, then joins the workers.
  ~service();

  service(const service&) = delete;
  service& operator=(const service&) = delete;

  /// Submits one raw JSONL request line under sequence number `seq`
  /// (1-based; becomes the response's line number, and picks the worker
  /// slot for fault injection). Returns true when admitted - `done` will
  /// fire exactly once. Returns false when the queue is at capacity: the
  /// request was shed, `done` never fires, and the caller should answer
  /// with overloaded_response(seq).
  [[nodiscard]] bool submit(std::uint64_t seq, std::string text, callback done);

  /// The shed-request response: `"error":"overloaded"` with the
  /// configured retry_after_ms hint.
  [[nodiscard]] response overloaded_response(std::uint64_t seq) const;

  /// Blocks until every admitted request has completed (its callback
  /// returned). Safe to call concurrently with submit(): requests admitted
  /// after drain() begins are *not* waited for.
  void drain();

  /// Blocks until the queue holds fewer than queue_capacity admitted
  /// requests. A caller that is the service's only submitter is then
  /// guaranteed its next submit() is admitted (run_batch relies on this;
  /// a completion callback returns before its request leaves the queue).
  void wait_for_room();

  /// One snapshot of the live counters (the {"op":"stats"} payload).
  [[nodiscard]] service_stats stats() const;

  /// Source-memo bounds: past memo_entry_limit fingerprints (every memo
  /// entry has one) or max(cache_bytes, memo_min_bytes) estimated bytes,
  /// the next memo miss wipes the memo and the fingerprint set together.
  static constexpr std::size_t memo_entry_limit = std::size_t{1} << 16;
  static constexpr std::size_t memo_min_bytes = std::size_t{8} << 20;

  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }
  [[nodiscard]] const service_options& options() const noexcept { return options_; }
  [[nodiscard]] schedule_cache& cache() noexcept { return cache_; }
  /// The persistent tier, or nullptr when not configured.
  [[nodiscard]] disk_cache* disk() noexcept { return disk_.get(); }

private:
  /// In-flight dedup rendezvous: the leader publishes its canonical-space
  /// outcome here; followers that arrived while it was computing read the
  /// result straight from the future (never from a cache re-lookup, which
  /// would return null for oversize-rejected values).
  struct flight {
    std::string error; ///< set by the leader iff the computation failed
    schedule_cache::result_ptr result;
  };
  using flight_ptr = std::shared_ptr<const flight>;

  void process(std::uint64_t seq, const std::string& text, const callback& done,
               std::chrono::steady_clock::time_point admitted_at);
  void complete(response r, const callback& done,
                std::chrono::steady_clock::time_point admitted_at);
  /// The request's source_info, from the memo or hashed. A hash keeps the
  /// DFG it built in `built` so a cache miss does not build it again.
  [[nodiscard]] source_info lookup_source(const request& req,
                                          std::optional<source_design>& built);
  /// Pool worker i owns contexts_[i]; any non-pool thread the extra slot.
  [[nodiscard]] sched::run_context& context_for_current_thread() noexcept;

  service_options options_;
  unsigned jobs_ = 1;
  schedule_cache cache_;
  std::unique_ptr<disk_cache> disk_; ///< null when the persistent tier is off
  std::unique_ptr<thread_pool> pool_;
  /// jobs_ + 1 per-worker scheduling contexts (see context_for_current_thread).
  std::vector<std::unique_ptr<sched::run_context>> contexts_;
  std::chrono::steady_clock::time_point started_at_;

  // Admission + drain bookkeeping. queue_depth_ = admitted - completed;
  // admission is one fetch_add with a rollback, so shedding never takes a
  // lock. peak_queue_depth_ witnesses boundedness for the load harness.
  std::atomic<std::size_t> queue_depth_{0};
  std::atomic<std::size_t> peak_queue_depth_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> computed_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> deduped_{0};
  latency_histogram latency_;
  mutable std::mutex drain_mutex_;
  std::condition_variable drained_;

  // Source-signature -> source_info memo, admitted on a design's second
  // sighting: the first only records a 64-bit fingerprint of the
  // signature, so a design asked for once holds no canonical_of array. A
  // fingerprint collision only admits a design early; the memo is keyed by
  // the full signature. Bounded by entry count and bytes (signatures embed
  // raw .dfg text); the memo and the fingerprints are wiped together when
  // either bound trips - the schedule cache, not the memo, is the capacity
  // story.
  mutable std::mutex memo_mutex_;
  std::unordered_map<std::string, source_info> source_memo_;
  std::unordered_set<std::uint64_t> seen_fingerprints_;
  std::size_t memo_bytes_ = 0; ///< estimate over the memo and the fingerprints
  std::uint64_t memo_hits_ = 0;
  std::uint64_t memo_admitted_ = 0;

  // Key -> in-flight computation. The leader inserts a promise before
  // touching the cache and erases it after publishing, so any follower
  // either joins the flight or does its own (possibly cached) lookup.
  std::mutex flight_mutex_;
  std::unordered_map<ir::dfg_digest, std::shared_future<flight_ptr>,
                     ir::dfg_digest_hash>
      flights_;
};

/// Everything the daemon front-end needs beyond the service core - the one
/// parsed struct the CLI flag surface (--serve-queue, --serve-ordered,
/// --listen, --max-conns, cache flags) collapses into. Built and validated
/// exclusively by serve/options.h, so CLI and tests share one error path.
struct daemon_options {
  service_options service;
  bool ordered = false; ///< input-order responses instead of
                        ///< streaming-as-completed
  frame_limits limits;
  std::size_t max_connections = 64; ///< socket front-ends: accepted-but-open
                                    ///< bound; beyond it connections shed
};

// ---------------------------------------------------------------------------
// The shared connection loop: one framed client session over any transport.

/// How a connection ended.
enum class connection_end {
  eof,            ///< clean EOF at a frame boundary
  shutdown_op,    ///< {"op":"shutdown"}: drained, acked, stopped
  transport_error ///< malformed frame: answered once, drained, closed
};

/// Knobs of one connection (a slice of daemon_options).
struct connection_options {
  bool ordered = false;
  bool emit_schedule = true;
  frame_limits limits;
};

/// Per-connection accounting.
struct connection_summary {
  connection_end end = connection_end::eof;
  std::uint64_t frames = 0;    ///< well-formed frames read (incl. control)
  std::uint64_t requests = 0;  ///< frames submitted to the service
  std::uint64_t responses = 0; ///< response frames written (incl. shed)
  bool write_failed = false;   ///< the peer vanished mid-conversation
};

/// Serves one client over `stream` against a shared service: reads frames,
/// answers control ops (hello / stats / shutdown - serve/protocol.h),
/// submits everything else, and writes response frames either streaming or
/// in input order. Always drains *this connection's* admitted requests
/// before returning - a transport error or dead peer here never stalls or
/// aborts other connections on the same service. `counters`, when given,
/// receives this connection's closing byte totals and feeds the
/// {"op":"stats"} "conns" object.
connection_summary serve_connection(byte_stream& stream, service& svc,
                                    const connection_options& options,
                                    connection_counters* counters = nullptr);

/// Per-run accounting of one daemon session.
struct daemon_summary {
  std::uint64_t frames = 0;        ///< well-formed frames read (incl. control)
  std::uint64_t requests = 0;      ///< frames submitted to the service
  std::uint64_t responses = 0;     ///< response frames written (incl. shed)
  bool shutdown_requested = false; ///< ended by {"op":"shutdown"}
  bool transport_error = false;    ///< ended by a malformed frame
  service_stats stats;             ///< final service counters
  connection_counters_snapshot conns; ///< transport-level totals
};

/// Runs the resident daemon over framed streams until EOF, a shutdown op,
/// or a transport error - always draining admitted work before returning.
/// A thin adapter: wraps the streams in an iostream_byte_stream and runs
/// serve_connection over a fresh service. Socket transports run the same
/// loop per accepted connection (serve/socket.h). Wire protocol:
/// docs/SERVING.md §"Wire protocol".
daemon_summary run_daemon(std::istream& in, std::ostream& out,
                          const daemon_options& options = {});

/// Receives each batch response with its JSONL line (write_response_line
/// under the service's emit_schedule; no newline), one at a time, in input
/// order. Calls come from the service's worker threads, never
/// concurrently; must not throw.
using response_sink = std::function<void(const response&, std::string_view line)>;

/// The JSONL batch front end (--serve-batch): reads one request per line
/// (blank lines skipped), submits each to `svc` with its 1-based physical
/// line number as `seq` - so `line`, the default `"line<N>"` id and
/// fault-injection slots follow the input file - and hands the responses
/// to `sink` in input order. A new line is admitted only while fewer than
/// queue_capacity requests are submitted but not yet written. Returns the
/// number of requests submitted, after every one has been handed to the
/// sink.
std::uint64_t run_batch(std::istream& in, service& svc, const response_sink& sink);

} // namespace softsched::serve
