// engine.h - the per-request scheduling pipeline's building blocks: build +
// canonically hash a request's design, derive its schedule-cache key, run
// its backend in canonical space, map the result back into the requester's
// own vertex numbering, and serialize the response. The resident service
// (serve/daemon.h) composes them into parse -> memoized hash -> key ->
// in-flight dedup -> RAM/disk cache -> backend -> publish; both of its
// front ends (--serve-batch and --serve) therefore speak the same bytes.
//
// Determinism contract (docs/DESIGN.md §6): every response payload is a
// pure function of its request - identical for any worker count, cache
// size or disk tier. Two rules enforce it: (1) scheduling is share-nothing
// (each worker brings its own run_context) and happens in canonical space,
// so a cached result is a pure function of its key; (2) responses never
// carry hit/miss state - caching is observable only through the service
// counters, so a cold run, a hot run and an evicting tiny-cache run emit
// byte-identical payloads (only the `ms` latency field varies).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sched/run_context.h"
#include "serve/cache.h"
#include "serve/request.h"

namespace softsched::serve {

/// One response. `same_payload` ignores only the latency field - the
/// equality the determinism tests and the --jobs/cache-size acceptance
/// criterion check.
struct response {
  std::size_t line = 0;   ///< 1-based input line number
  std::string id;         ///< request id (default "line<N>")
  std::string error;      ///< parse/build error; empty = result is valid
  std::string backend;    ///< scheduler backend that produced the result
  ir::dfg_digest key;     ///< schedule-cache key (zero when errored before hashing)
  schedule_result result;
  double ms = 0;          ///< scheduling latency this request paid (0 when served
                          ///< from cache / dedup); excluded from same_payload
  double retry_after_ms = 0; ///< backpressure hint on "overloaded" errors
                             ///< (daemon admission control); serialized only
                             ///< when positive

  [[nodiscard]] bool same_payload(const response& other) const;
};

/// Serializes one response as a single-line JSON object (no trailing
/// newline). With emit_schedule off, the start/unit arrays are omitted.
/// The one serializer behind every front end and transport.
void write_response_line(std::ostream& out, const response& r, bool emit_schedule);

/// Canonical identity of one request's *design source*: the digest behind
/// its cache key and the source-id -> canonical-index map that moves
/// results between the canonical space schedules are computed in and the
/// requester's own vertex numbering. `error` non-empty means the source
/// fails to build (and the other fields are meaningless).
struct source_info {
  ir::dfg_digest digest;
  std::string error;
  std::vector<std::uint32_t> canonical_of;
};

/// Builds + canonically hashes the request's design. Never throws: build
/// failures land in source_info::error.
[[nodiscard]] source_info hash_request_source(const request& req);

/// A request's source DFG with the library its delays were baked from.
/// The DFG points into the library, so the pair is built in place and
/// never moves. Built once per request: the hash step builds it and the
/// compute step reuses it.
struct source_design {
  explicit source_design(const request& req); ///< throws like build_request_design
  source_design(const source_design&) = delete;
  source_design& operator=(const source_design&) = delete;

  ir::resource_library library;
  ir::dfg design;
};

/// hash_request_source that keeps the DFG it builds in `built` for
/// compute_canonical_schedule to reuse (`built` is left empty when the
/// source fails to build or hash).
[[nodiscard]] source_info hash_request_source(const request& req,
                                              std::optional<source_design>& built);

/// Derives the schedule-cache key: canonical digest + allocation +
/// backend/meta salt (identical designs under different backends must
/// never share a cache entry - docs/DESIGN.md §7).
[[nodiscard]] ir::dfg_digest schedule_key_for(const request& req,
                                              const ir::dfg_digest& digest);

/// Runs the request's scheduler backend in canonical space, staging all
/// per-run state in `ctx`. Share-nothing as long as each thread brings its
/// own context (the service keeps one per worker). Throws on internal
/// failure (unreachable once the source built).
[[nodiscard]] schedule_result compute_canonical_schedule(
    const request& req, const std::vector<std::uint32_t>& canonical_of,
    sched::run_context& ctx);

/// Same, over a source design already built for this request.
[[nodiscard]] schedule_result compute_canonical_schedule(
    const request& req, const source_design& source,
    const std::vector<std::uint32_t>& canonical_of, sched::run_context& ctx);

/// Convenience overload for one-shot callers (tests, the daemon's warmup):
/// runs on a private heap-mode context.
[[nodiscard]] schedule_result compute_canonical_schedule(
    const request& req, const std::vector<std::uint32_t>& canonical_of);

/// Canonical-indexed result -> the requester's own vertex numbering.
[[nodiscard]] schedule_result result_to_source_order(
    const schedule_result& canonical, const std::vector<std::uint32_t>& canonical_of);

} // namespace softsched::serve
