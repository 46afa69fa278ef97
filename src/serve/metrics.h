// metrics.h - live service metrics for the resident scheduling daemon: a
// lock-light latency histogram (per-bucket atomic counters, no mutex on
// the record path) and the stats snapshot the `{"op":"stats"}` request
// exposes.
//
// The histogram is logarithmic: 8 buckets per octave (bucket bounds grow
// by 2^(1/8) ~ 1.09x), from 1 microsecond to ~4.5 minutes. record() is one
// relaxed fetch_add - workers never contend on a lock to report a latency,
// which is what keeps tail-latency measurement from perturbing the tail it
// measures. percentile() scans the (small, fixed) bucket array and returns
// the *upper bound* of the bucket holding the requested rank, so it never
// under-reports: the returned value is >= the exact order statistic and
// overshoots it by at most one bucket ratio (~9.1%). That bound is pinned
// against a sorted-vector oracle in tests/daemon_test.cpp.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace softsched::serve {

/// Lock-light log-bucketed latency histogram (milliseconds).
class latency_histogram {
public:
  static constexpr int buckets_per_octave = 8;
  static constexpr int bucket_count = buckets_per_octave * 28; ///< 1us .. ~268s
  static constexpr double floor_ms = 1e-3;

  /// Worst-case relative overshoot of percentile() vs the exact order
  /// statistic (one bucket ratio): 2^(1/8) - 1.
  [[nodiscard]] static double relative_error() noexcept;

  /// Records one latency. Negative/zero/subsample values land in the
  /// bottom bucket; values beyond the range land in the top one. Wait-free
  /// (one relaxed atomic increment).
  void record(double ms) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept;

  /// Upper bound of the bucket containing the p-th percentile (nearest
  /// rank, p in [0, 100]); 0 when nothing was recorded. Concurrent
  /// record() calls may or may not be included - the snapshot is
  /// monotone-consistent, not atomic across buckets, which is fine for
  /// monitoring counters.
  [[nodiscard]] double percentile(double p) const noexcept;

  /// Upper bound of a bucket (exposed for tests and bucket introspection).
  [[nodiscard]] static double bucket_upper_bound(int index) noexcept;
  [[nodiscard]] static int bucket_of(double ms) noexcept;

private:
  std::array<std::atomic<std::uint64_t>, bucket_count> counts_{};
};

/// One consistent-enough snapshot of the resident service's live counters:
/// the payload of a `{"op":"stats"}` response (docs/SERVING.md). Every
/// admitted request ends in exactly one of errors / computed / cache_hits
/// / deduped once completed.
struct service_stats {
  std::uint64_t submitted = 0;  ///< admitted + overloaded
  std::uint64_t admitted = 0;   ///< passed admission control
  std::uint64_t overloaded = 0; ///< shed at admission (queue full)
  std::uint64_t completed = 0;  ///< admitted requests fully responded
  std::uint64_t errors = 0;     ///< parse/build/injected failures
  std::uint64_t computed = 0;   ///< ran a scheduler backend
  std::uint64_t cache_hits = 0; ///< served from the schedule cache
  std::uint64_t deduped = 0;    ///< coalesced onto an in-flight twin
  std::size_t queue_depth = 0;      ///< admitted - completed right now
  std::size_t peak_queue_depth = 0; ///< boundedness witness (<= queue capacity)
  double uptime_ms = 0;
  double qps = 0;     ///< completed / uptime
  double p50_ms = 0;  ///< service latency percentiles (admission -> response)
  double p95_ms = 0;
  double p99_ms = 0;
  double hit_rate = 0; ///< (cache_hits + deduped) / completed-without-error

  // RAM-tier residency (serve/cache.h schedule_cache::counters()).
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;     ///< packed result bytes, the --cache-mb budget's unit
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_rejected_oversize = 0;

  // Source memo (serve/daemon.h): signature -> digest + canonical_of,
  // admitted on a design's second sighting.
  std::size_t memo_entries = 0;
  std::size_t memo_bytes = 0;      ///< estimate: entries + first-sighting fingerprints
  std::uint64_t memo_hits = 0;     ///< lookups answered without hashing
  std::uint64_t memo_admitted = 0; ///< second sightings stored (counts across wipes)

  // Persistent-tier counters (serve/diskcache.h); all zero when the disk
  // tier is off. disk_enabled distinguishes "off" from "on but idle".
  bool disk_enabled = false;
  bool disk_degraded = false;    ///< disk tier hit an I/O error; RAM-only now
  std::uint64_t disk_hits = 0;   ///< RAM misses served from disk
  std::uint64_t disk_misses = 0;
  std::uint64_t disk_writes = 0; ///< records persisted
  std::uint64_t disk_evictions = 0;
  std::uint64_t disk_corrupt_dropped = 0; ///< invalid records quarantined
  std::uint64_t disk_io_errors = 0;
  std::size_t disk_entries = 0;
  std::size_t disk_bytes = 0;
  double disk_recovery_scan_ms = 0;       ///< open-time directory scan
  std::uint64_t disk_recovered_entries = 0; ///< records indexed at open
};

} // namespace softsched::serve
